#include "ledger.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

namespace perfbench {

using geocol::OperatorProfile;
using geocol::QueryProfile;

namespace {

double Attr(const OperatorProfile& op, const char* key) {
  for (const auto& [k, v] : op.attrs) {
    if (k == key) return std::strtod(v.c_str(), nullptr);
  }
  return 0;
}

bool StartsWith(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

/// Nanoseconds of span `idx` not covered by its direct children.
double SelfNanos(const QueryProfile& profile, int32_t idx) {
  const auto& ops = profile.operators();
  const int64_t lo = ops[idx].start_nanos;
  const int64_t hi = lo + ops[idx].nanos;
  std::vector<std::pair<int64_t, int64_t>> kids;
  for (const OperatorProfile& op : ops) {
    if (op.parent != idx) continue;
    const int64_t a = std::max(lo, op.start_nanos);
    const int64_t b = std::min(hi, op.start_nanos + op.nanos);
    if (b > a) kids.emplace_back(a, b);
  }
  std::sort(kids.begin(), kids.end());
  int64_t covered = 0, end = lo;
  for (const auto& [a, b] : kids) {
    if (b <= end) continue;
    covered += b - std::max(a, end);
    end = b;
  }
  return static_cast<double>(ops[idx].nanos - covered);
}

void Push(std::vector<Metric>* out, const char* name, double value,
          const char* unit) {
  out->push_back({name, value, unit});
}

double MedianOr0(const std::vector<double>& v) {
  return Median(v).value_or(0.0);
}

}  // namespace

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

StatementLayers MineProfile(const QueryProfile& profile) {
  StatementLayers s;
  const auto& ops = profile.operators();
  for (size_t i = 0; i < ops.size(); ++i) {
    const OperatorProfile& op = ops[i];
    if (op.name == "filter.imprints.x" || op.name == "filter.imprints.y") {
      (op.name.back() == 'x' ? s.filter_x_ms : s.filter_y_ms) +=
          op.nanos / 1e6;
      s.lines_probed += static_cast<uint64_t>(Attr(op, "cachelines_probed"));
      s.lines_total += static_cast<uint64_t>(Attr(op, "cachelines_total"));
      const double checked = Attr(op, "values_checked");
      s.values_checked += static_cast<uint64_t>(checked);
      s.values_rejected += checked * Attr(op, "false_positive_rate");
    } else if (StartsWith(op.name, "filter.intersect")) {
      s.intersect_ms += op.nanos / 1e6;
    } else if (op.name == "filter") {
      s.filtered = true;
      s.candidates += op.rows_out;
    } else if (StartsWith(op.name, "refine.")) {
      s.selected += op.rows_out;
      if (op.name == "refine.grid") {
        s.refined = true;
        s.refine_ns += static_cast<double>(op.nanos);
        s.refine_in += op.rows_in;
        s.refine_out += op.rows_out;
        // The grid span reports its cell split only in its detail text.
        unsigned cols = 0, rows = 0;
        unsigned long long in = 0, bnd = 0, out = 0, exact = 0;
        if (std::sscanf(op.detail.c_str(),
                        "grid=%ux%u cells in/bnd/out=%llu/%llu/%llu "
                        "exact=%llu",
                        &cols, &rows, &in, &bnd, &out, &exact) == 6) {
          s.exact_tests += exact;
          s.cells_boundary += bnd;
          s.cells_all += in + bnd + out;
        }
      }
    } else if (op.name == "shard.route") {
      s.routed = true;
      s.route_self_us += SelfNanos(profile, static_cast<int32_t>(i)) / 1e3;
      s.shards_total += static_cast<uint64_t>(Attr(op, "shards_total"));
      s.shards_scanned += static_cast<uint64_t>(Attr(op, "shards_scanned"));
      s.shards_covered += static_cast<uint64_t>(Attr(op, "shards_covered"));
    } else if (op.name == "cache.hit") {
      s.cache_hit = true;
      s.cache_hit_us += op.nanos / 1e3;
    }
  }
  return s;
}

void Ledger::AddSql(double parse_us, double plan_us, double exec_us) {
  parse_us_.push_back(parse_us);
  plan_us_.push_back(plan_us);
  exec_us_.push_back(exec_us);
}

void Ledger::AddStatement(const StatementLayers& s) {
  if (s.filtered) {
    filter_x_ms_.push_back(s.filter_x_ms);
    filter_y_ms_.push_back(s.filter_y_ms);
    intersect_ms_.push_back(s.intersect_ms);
    lines_probed_ += s.lines_probed;
    lines_total_ += s.lines_total;
    values_checked_ += s.values_checked;
    values_rejected_ += s.values_rejected;
    candidates_ += s.candidates;
    selected_ += s.selected;
  }
  if (s.refined) {
    refine_ms_.push_back(s.refine_ns / 1e6);
    refine_ns_ += s.refine_ns;
    refine_in_ += s.refine_in;
    refine_out_ += s.refine_out;
    exact_tests_ += s.exact_tests;
    cells_boundary_ += s.cells_boundary;
    cells_all_ += s.cells_all;
  }
  if (s.routed) {
    route_us_.push_back(s.route_self_us);
    shards_total_ += s.shards_total;
    shards_scanned_ += s.shards_scanned;
    shards_covered_ += s.shards_covered;
  }
  if (s.cache_hit) cache_hit_us_.push_back(s.cache_hit_us);
}

void Ledger::Emit(std::vector<Metric>* out) const {
  Push(out, "sql.parse_us", MedianOr0(parse_us_), "us");
  Push(out, "sql.plan_us", MedianOr0(plan_us_), "us");
  Push(out, "exec.us", MedianOr0(exec_us_), "us");
  Push(out, "filter.x_ms", MedianOr0(filter_x_ms_), "ms");
  Push(out, "filter.y_ms", MedianOr0(filter_y_ms_), "ms");
  Push(out, "filter.intersect_ms", MedianOr0(intersect_ms_), "ms");
  Push(out, "filter.lines_touched_frac",
       Ratio(static_cast<double>(lines_probed_),
             static_cast<double>(lines_total_)),
       "frac");
  Push(out, "filter.false_positive_rate",
       Ratio(values_rejected_, static_cast<double>(values_checked_)), "frac");
  Push(out, "filter.candidates_per_row",
       Ratio(static_cast<double>(candidates_), static_cast<double>(selected_)),
       "ratio");
  Push(out, "refine.ms", MedianOr0(refine_ms_), "ms");
  Push(out, "refine.ns_per_candidate",
       Ratio(refine_ns_, static_cast<double>(refine_in_)), "ns");
  Push(out, "refine.exact_tests_per_row",
       Ratio(static_cast<double>(exact_tests_),
             static_cast<double>(refine_out_)),
       "ratio");
  Push(out, "refine.boundary_cell_frac",
       Ratio(static_cast<double>(cells_boundary_),
             static_cast<double>(cells_all_)),
       "frac");
  Push(out, "shard.route_us", MedianOr0(route_us_), "us");
  Push(out, "shard.scanned_frac",
       Ratio(static_cast<double>(shards_scanned_),
             static_cast<double>(shards_total_)),
       "frac");
  Push(out, "shard.covered_frac",
       Ratio(static_cast<double>(shards_covered_),
             static_cast<double>(shards_total_)),
       "frac");
  Push(out, "cache.hit_us", MedianOr0(cache_hit_us_), "us");
  Push(out, "live.pin_us", MedianOr0(pin_us_), "us");
  Push(out, "live.first_read_ms", MedianOr0(first_read_ms_), "ms");
}

}  // namespace perfbench
