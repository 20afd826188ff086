// Seeded statement streams of the navigation benchmark. Everything here is
// a pure function of (extent, seed): the same seed yields byte-identical
// SQL on every platform (own uniform mapping on top of mt19937_64, fixed
// printf formats), a new seed yields a different stream.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "geom/geometry.h"
#include "pointcloud/generator.h"

namespace perfbench {

/// Statement classes; latencies are reported per class as well.
enum class StmtClass : uint8_t {
  kTile = 0,    ///< box of 1e-4..1e-3 of the extent area (filter-bound)
  kRegion = 1,  ///< box of 1..5 % of the extent area
  kPoly = 2,    ///< 48-gon of 1..10 % of the extent area (refine-bound)
  kHot = 3,     ///< dashboard: one of the 64 shared hot viewports
  kJitter = 4,  ///< dashboard: a fresh viewport jittered around the centre
};
constexpr int kNumClasses = 5;

struct Statement {
  std::string sql;
  StmtClass cls = StmtClass::kTile;
};

/// Survey options for ~`points` points on a square extent at AHN2-like
/// density (8 points per m2), as the repo's own experiments size them.
geocol::AhnGeneratorOptions SurveyOptions(uint64_t points, uint64_t seed);

/// Deterministic uniform draws (std::uniform_real_distribution is
/// implementation-defined, so it would break byte-identity across
/// standard libraries).
class Rng {
 public:
  explicit Rng(uint64_t seed) : gen_(seed) {}
  double Uniform() { return static_cast<double>(gen_() >> 11) * 0x1.0p-53; }
  double Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }
  uint64_t Below(uint64_t n) { return gen_() % n; }

 private:
  std::mt19937_64 gen_;
};

/// The pan/zoom navigation trace: a random walk of unique viewports.
/// 60 % tiles (COUNT, AVG, projection LIMIT 256, or box plus a
/// classification range), 20 % regions (COUNT/AVG), 20 % 48-gons
/// (COUNT/AVG). The walk pans by about half a viewport per step, drifts
/// its heading, bounces off the extent border and jumps to a random spot
/// 5 % of the time.
class NavigationTrace {
 public:
  NavigationTrace(const geocol::Box& extent, uint64_t seed);
  Statement Next();

 private:
  /// Moves the walk by about half of `side` and returns the new centre,
  /// kept at least `half` away from every border.
  void Step(double side, double half);

  geocol::Box extent_;
  Rng rng_;
  double cx_, cy_, heading_;
};

/// The shared-dashboard stream of one connection: with probability 1/2 a
/// statement from the fixed pool of 64 hot viewports (identical for every
/// connection of a seed), otherwise a fresh box jittered around the
/// centre. Every statement uses the batchable
/// `x BETWEEN .. AND y BETWEEN ..` form as COUNT, AVG/MAX or a LIMIT 32
/// projection.
class DashboardStream {
 public:
  DashboardStream(const geocol::Box& extent, uint64_t seed, int connection);
  Statement Next();

  /// The hot pool of `seed` (64 statements).
  static std::vector<std::string> HotPool(const geocol::Box& extent,
                                          uint64_t seed);

 private:
  geocol::Box extent_;
  std::vector<std::string> hot_;
  Rng rng_;
};

/// First `n` statements of a stream (tests, oracle replays).
std::vector<Statement> NavigationStatements(const geocol::Box& extent,
                                            uint64_t seed, size_t n);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
