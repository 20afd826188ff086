#include "trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

using geocol::Box;

namespace {

constexpr double kPi = 3.14159265358979323846;

std::string Fmt(const char* fmt, double a, double b, double c, double d) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, a, b, c, d);
  return buf;
}

std::string BoxWithin(double x0, double y0, double x1, double y1) {
  return Fmt("ST_Within(pt, ST_GeomFromText('BOX(%.3f %.3f, %.3f %.3f)'))",
             x0, y0, x1, y1);
}

std::string BetweenBox(double x0, double y0, double x1, double y1) {
  return Fmt("x BETWEEN %.3f AND %.3f AND y BETWEEN %.3f AND %.3f", x0, x1,
             y0, y1);
}

/// One dashboard viewport: 8..12 % of each extent side around the centre,
/// in statement shape `shape` (0..2).
std::string DashboardStatement(const Box& e, Rng& rng, uint64_t shape) {
  const double w = e.width() * rng.Uniform(0.08, 0.12);
  const double h = e.height() * rng.Uniform(0.08, 0.12);
  const double cx = e.min_x + e.width() * rng.Uniform(0.45, 0.55);
  const double cy = e.min_y + e.height() * rng.Uniform(0.45, 0.55);
  const std::string where =
      BetweenBox(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2);
  switch (shape) {
    case 0:
      return "SELECT COUNT(*) FROM ahn2 WHERE " + where;
    case 1:
      return "SELECT AVG(z), MAX(z) FROM ahn2 WHERE " + where;
    default:
      return "SELECT x, y, z FROM ahn2 WHERE " + where + " LIMIT 32";
  }
}

}  // namespace

geocol::AhnGeneratorOptions SurveyOptions(uint64_t points, uint64_t seed) {
  geocol::AhnGeneratorOptions opts;
  opts.seed = seed;
  const double side = std::sqrt(static_cast<double>(points) / 8.0);
  opts.extent = Box(85000.0, 444000.0, 85000.0 + side, 444000.0 + side);
  opts.point_density = 8.0;
  opts.scan_line_spacing = 1.0 / std::sqrt(8.0);
  opts.strip_width = std::max(side / 8.0, 10.0);
  return opts;
}

NavigationTrace::NavigationTrace(const Box& extent, uint64_t seed)
    : extent_(extent), rng_(seed) {
  cx_ = rng_.Uniform(extent.min_x, extent.max_x);
  cy_ = rng_.Uniform(extent.min_y, extent.max_y);
  heading_ = rng_.Uniform(0, 2 * kPi);
}

void NavigationTrace::Step(double side, double half) {
  if (rng_.Uniform() < 0.05) {
    cx_ = rng_.Uniform(extent_.min_x, extent_.max_x);
    cy_ = rng_.Uniform(extent_.min_y, extent_.max_y);
  } else {
    heading_ += rng_.Uniform(-0.6, 0.6);
    const double step = side * rng_.Uniform(0.25, 0.75);
    cx_ += step * std::cos(heading_);
    cy_ += step * std::sin(heading_);
  }
  // Bounce: reflect the heading and clamp the centre so the viewport stays
  // inside the extent.
  const double lo_x = extent_.min_x + half, hi_x = extent_.max_x - half;
  const double lo_y = extent_.min_y + half, hi_y = extent_.max_y - half;
  if (cx_ < lo_x || cx_ > hi_x) heading_ = kPi - heading_;
  if (cy_ < lo_y || cy_ > hi_y) heading_ = -heading_;
  cx_ = std::clamp(cx_, lo_x, std::max(lo_x, hi_x));
  cy_ = std::clamp(cy_, lo_y, std::max(lo_y, hi_y));
}

Statement NavigationTrace::Next() {
  const double area = extent_.width() * extent_.height();
  const double u = rng_.Uniform();
  Statement s;
  if (u < 0.6) {
    s.cls = StmtClass::kTile;
    // Log-uniform area share in [1e-4, 1e-3], aspect ratio 0.6..1.6.
    const double frac = std::pow(10.0, rng_.Uniform(-4.0, -3.0));
    const double aspect = rng_.Uniform(0.6, 1.6);
    const double w = std::sqrt(frac * area * aspect);
    const double h = std::sqrt(frac * area / aspect);
    Step(std::max(w, h), std::max(w, h) / 2);
    const std::string box =
        BoxWithin(cx_ - w / 2, cy_ - h / 2, cx_ + w / 2, cy_ + h / 2);
    switch (rng_.Below(4)) {
      case 0:
        s.sql = "SELECT COUNT(*) FROM ahn2 WHERE " + box;
        break;
      case 1:
        s.sql = "SELECT AVG(z) FROM ahn2 WHERE " + box;
        break;
      case 2:
        s.sql = "SELECT x, y, z FROM ahn2 WHERE " + box + " LIMIT 256";
        break;
      default: {
        // LAS classes 2 (ground) .. 6 (building).
        const int lo = 2 + static_cast<int>(rng_.Below(5));
        const int hi = lo + static_cast<int>(rng_.Below(4));
        s.sql = "SELECT COUNT(*) FROM ahn2 WHERE " + box +
                " AND classification BETWEEN " + std::to_string(lo) +
                " AND " + std::to_string(hi);
        break;
      }
    }
    return s;
  }
  const bool avg = rng_.Below(2) == 1;
  const std::string head = avg ? "SELECT AVG(z) FROM ahn2 WHERE "
                                : "SELECT COUNT(*) FROM ahn2 WHERE ";
  if (u < 0.8) {
    s.cls = StmtClass::kRegion;
    const double frac = rng_.Uniform(0.01, 0.05);
    const double aspect = rng_.Uniform(0.6, 1.6);
    const double w = std::sqrt(frac * area * aspect);
    const double h = std::sqrt(frac * area / aspect);
    Step(std::max(w, h), std::max(w, h) / 2);
    s.sql = head +
            BoxWithin(cx_ - w / 2, cy_ - h / 2, cx_ + w / 2, cy_ + h / 2);
    return s;
  }
  // A star-shaped 48-gon scaled to an area share in [1 %, 10 %].
  s.cls = StmtClass::kPoly;
  constexpr int kVertices = 48;
  const double frac = rng_.Uniform(0.01, 0.10);
  double radius[kVertices];
  double shoelace = 0;
  for (int i = 0; i < kVertices; ++i) radius[i] = rng_.Uniform(0.7, 1.3);
  for (int i = 0; i < kVertices; ++i) {
    shoelace += radius[i] * radius[(i + 1) % kVertices] *
                std::sin(2 * kPi / kVertices);
  }
  const double scale = std::sqrt(frac * area / (shoelace / 2));
  const double reach = 1.3 * scale;
  Step(2 * reach, reach);
  std::string wkt = "POLYGON((";
  char buf[64];
  for (int i = 0; i <= kVertices; ++i) {
    const int k = i % kVertices;
    const double a = 2 * kPi * k / kVertices;
    std::snprintf(buf, sizeof(buf), "%s%.3f %.3f", i == 0 ? "" : ", ",
                  cx_ + scale * radius[k] * std::cos(a),
                  cy_ + scale * radius[k] * std::sin(a));
    wkt += buf;
  }
  wkt += "))";
  s.sql = head + "ST_Within(pt, ST_GeomFromText('" + wkt + "'))";
  return s;
}

std::vector<std::string> DashboardStream::HotPool(const Box& extent,
                                                  uint64_t seed) {
  Rng rng(seed ^ 0x9e3779b97f4a7c15ull);
  std::vector<std::string> pool;
  // Shapes rotate so every pool holds the same mix.
  for (uint64_t i = 0; i < 64; ++i) {
    pool.push_back(DashboardStatement(extent, rng, i % 3));
  }
  return pool;
}

DashboardStream::DashboardStream(const Box& extent, uint64_t seed,
                                 int connection)
    : extent_(extent),
      hot_(HotPool(extent, seed)),
      rng_(seed * 1000003ull + static_cast<uint64_t>(connection) + 1) {}

Statement DashboardStream::Next() {
  Statement s;
  if (rng_.Below(2) == 0) {
    s.cls = StmtClass::kHot;
    s.sql = hot_[rng_.Below(hot_.size())];
  } else {
    s.cls = StmtClass::kJitter;
    s.sql = DashboardStatement(extent_, rng_, rng_.Below(3));
  }
  return s;
}

std::vector<Statement> NavigationStatements(const Box& extent, uint64_t seed,
                                            size_t n) {
  NavigationTrace trace(extent, seed);
  std::vector<Statement> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) out.push_back(trace.Next());
  return out;
}

}  // namespace perfbench
