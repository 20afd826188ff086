// The per-layer ledger of a traced run. Every number comes from outside
// the program: stopwatches around public calls, plus the spans and counts
// those calls already return (the QueryProfile of a ResultSet, cache and
// server stats). Nothing is added to the library.
#ifndef PERFBENCH_LEDGER_H_
#define PERFBENCH_LEDGER_H_

#include <cstdint>
#include <vector>

#include "core/profile.h"
#include "stats.h"

namespace perfbench {

/// Layer work of one statement, mined from its returned span tree.
struct StatementLayers {
  double filter_x_ms = 0, filter_y_ms = 0, intersect_ms = 0;
  uint64_t lines_probed = 0, lines_total = 0;
  uint64_t values_checked = 0;
  double values_rejected = 0;  ///< false_positive_rate x values_checked
  uint64_t candidates = 0;     ///< rows leaving the filter step
  uint64_t selected = 0;       ///< rows leaving refinement
  bool filtered = false;
  bool refined = false;
  double refine_ns = 0;
  uint64_t refine_in = 0, refine_out = 0;
  uint64_t exact_tests = 0, cells_boundary = 0, cells_all = 0;
  bool routed = false;
  double route_self_us = 0;
  uint64_t shards_total = 0, shards_scanned = 0, shards_covered = 0;
  bool cache_hit = false;
  double cache_hit_us = 0;
};

/// Mines `profile` (filter.imprints.x/y, filter.intersect*, filter,
/// refine.grid, shard.route, cache.hit spans and their attributes).
StatementLayers MineProfile(const geocol::QueryProfile& profile);

/// Accumulates statements and emits the per-layer metrics.
class Ledger {
 public:
  void AddSql(double parse_us, double plan_us, double exec_us);
  void AddStatement(const StatementLayers& s);
  void AddPin(double us) { pin_us_.push_back(us); }
  /// Latency of a statement that was the first to pin a new epoch.
  void AddFirstRead(double ms) { first_read_ms_.push_back(ms); }

  /// sql.*, exec.us, filter.*, refine.*, shard.*, cache.hit_us,
  /// live.pin_us, live.first_read_ms. Layers that did no work report 0.
  void Emit(std::vector<Metric>* out) const;

 private:
  std::vector<double> parse_us_, plan_us_, exec_us_;
  std::vector<double> filter_x_ms_, filter_y_ms_, intersect_ms_;
  uint64_t lines_probed_ = 0, lines_total_ = 0, values_checked_ = 0;
  double values_rejected_ = 0;
  uint64_t candidates_ = 0, selected_ = 0;
  std::vector<double> refine_ms_;
  double refine_ns_ = 0;
  uint64_t refine_in_ = 0, refine_out_ = 0, exact_tests_ = 0;
  uint64_t cells_boundary_ = 0, cells_all_ = 0;
  std::vector<double> route_us_;
  uint64_t shards_total_ = 0, shards_scanned_ = 0, shards_covered_ = 0;
  std::vector<double> cache_hit_us_;
  std::vector<double> pin_us_;
  std::vector<double> first_read_ms_;
};

/// Ratio that reads 0 when nothing was measured.
double Ratio(double num, double den);

}  // namespace perfbench

#endif  // PERFBENCH_LEDGER_H_
