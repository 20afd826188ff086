#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "cache/chunk_cache.h"
#include "cache/query_cache.h"
#include "columns/column.h"
#include "columns/flat_table.h"
#include "columns/sharded_table.h"
#include "core/imprint_scan.h"
#include "core/live_table.h"
#include "core/spatial_engine.h"
#include "core/table_appender.h"
#include "gis/catalog.h"
#include "ledger.h"
#include "pointcloud/generator.h"
#include "server/client.h"
#include "server/server.h"
#include "sql/executor.h"
#include "sql/parser.h"
#include "sql/planner.h"
#include "sql/session.h"
#include "telemetry/recorder.h"
#include "trace.h"
#include "util/timer.h"

namespace perfbench {

using geocol::Box;
using geocol::Catalog;
using geocol::Column;
using geocol::ColumnPtr;
using geocol::FlatTable;
using geocol::Result;
using geocol::Status;
using geocol::Timer;
namespace fs = std::filesystem;
namespace sql = geocol::sql;
namespace cache = geocol::cache;
namespace server = geocol::server;

void Report::Fail(const std::string& why) {
  correct = false;
  if (errors.size() < 20) errors.push_back(why);
}

namespace {

constexpr char kTable[] = "ahn2";
/// ingest_live appends a fixed amount, 24 batches of 20 k rows, on a
/// schedule tied to the reader: batch k starts once the reader has
/// answered k * kReadsPerCommit statements (or when batch k-1 is done, if
/// that is later). The reader answers kIngestBatches * kReadsPerCommit
/// statements. Tying the schedule to reads keeps the share of reads that
/// overlap a commit the same in every run.
constexpr int kIngestBatches = 24;
constexpr uint64_t kReadsPerCommit = 250;
constexpr uint64_t kIngestBatchRows = 20000;
/// Trace statements replayed on the reopened live table and its oracle.
constexpr size_t kIngestCheckStatements = 300;
/// dashboard_serve: connections, and the `geocol serve` default cache.
constexpr int kConnections = 4;
constexpr uint64_t kDashboardCacheBytes = 64ull << 20;
/// out_of_core: 16 Hilbert shards, chunk cache at 10 % of the payload.
constexpr uint32_t kShards = 16;
constexpr uint64_t kChunkBudgetDivisor = 10;
/// A window runs at least --seconds and until p99 is reportable, but
/// never past this many times --seconds.
constexpr double kWindowCap = 6.0;
/// Sessions the oracle check runs at once.
constexpr size_t kOracleThreads = 4;

// ---------------------------------------------------------------------
// Per-layer metric sheet: every per_layer metric of BENCHMARK.json, in
// order. Layers a workload bypasses keep 0.

const std::vector<Metric>& PerLayerSheet() {
  static const std::vector<Metric> sheet = {
      {"sql.parse_us", 0, "us"},
      {"sql.plan_us", 0, "us"},
      {"exec.us", 0, "us"},
      {"filter.x_ms", 0, "ms"},
      {"filter.y_ms", 0, "ms"},
      {"filter.intersect_ms", 0, "ms"},
      {"filter.lines_touched_frac", 0, "frac"},
      {"filter.false_positive_rate", 0, "frac"},
      {"filter.candidates_per_row", 0, "ratio"},
      {"refine.ms", 0, "ms"},
      {"refine.ns_per_candidate", 0, "ns"},
      {"refine.exact_tests_per_row", 0, "ratio"},
      {"refine.boundary_cell_frac", 0, "frac"},
      {"shard.route_us", 0, "us"},
      {"shard.scanned_frac", 0, "frac"},
      {"shard.covered_frac", 0, "frac"},
      {"chunk.hit_rate", 0, "frac"},
      {"chunk.misses_per_stmt", 0, "count"},
      {"chunk.evictions_per_stmt", 0, "count"},
      {"chunk.faulting_stmt_frac", 0, "frac"},
      {"io.read_mb_per_stmt", 0, "MB"},
      {"cache.hit_rate", 0, "frac"},
      {"cache.hit_us", 0, "us"},
      {"cache.evictions", 0, "count"},
      {"cache.mb", 0, "MB"},
      {"server.overhead_us", 0, "us"},
      {"server.batched_frac", 0, "frac"},
      {"server.queue_max_depth", 0, "count"},
      {"server.shed", 0, "count"},
      {"recorder.us_per_stmt", 0, "us"},
      {"ingest.stage_ms", 0, "ms"},
      {"ingest.commit_ms", 0, "ms"},
      {"ingest.write_bytes_per_row", 0, "B/row"},
      {"ingest.rows_per_s", 0, "rows/s"},
      {"ingest.commits", 0, "count"},
      {"live.pin_us", 0, "us"},
      {"live.final_epoch", 0, "count"},
      {"live.first_read_ms", 0, "ms"},
      {"imprints.build_ms", 0, "ms"},
      {"index.storage_frac", 0, "frac"},
      {"stmt.tile_p50_ms", 0, "ms"},
      {"stmt.region_p50_ms", 0, "ms"},
      {"stmt.poly_p50_ms", 0, "ms"},
      {"stmt.hot_p50_ms", 0, "ms"},
      {"stmt.jitter_p50_ms", 0, "ms"},
      {"trace.untraced_p50_ms", 0, "ms"},
      {"trace.traced_p50_ms", 0, "ms"},
      {"trace.overhead_frac", 0, "frac"},
  };
  return sheet;
}

class Sheet {
 public:
  Sheet() : metrics_(PerLayerSheet()) {}
  void Set(const std::string& name, double value) {
    for (Metric& m : metrics_) {
      if (m.name == name) {
        m.value = value;
        return;
      }
    }
    std::fprintf(stderr, "perfbench: unknown per-layer metric %s\n",
                 name.c_str());
    std::abort();
  }
  void SetAll(const std::vector<Metric>& ms) {
    for (const Metric& m : ms) Set(m.name, m.value);
  }
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

// ---------------------------------------------------------------------
// Surveys, tables, indexes.

Result<std::shared_ptr<FlatTable>> GenerateSurvey(uint64_t sizing_points,
                                                  uint64_t n, uint64_t seed) {
  geocol::AhnGenerator gen(SurveyOptions(sizing_points, seed));
  return gen.GenerateTable(n);
}

Box Extent(const Config& cfg) {
  return SurveyOptions(cfg.points, cfg.seed).extent;
}

/// Rows [begin, begin + count) of `src` as a new resident table.
std::shared_ptr<FlatTable> SliceRows(const FlatTable& src, uint64_t begin,
                                     uint64_t count) {
  auto out = std::make_shared<FlatTable>(src.name());
  for (const ColumnPtr& c : src.columns()) {
    auto col = std::make_shared<Column>(c->name(), c->type());
    col->AppendRaw(c->raw_data() + begin * c->width(), count);
    (void)out->AddColumn(std::move(col));
  }
  return out;
}

/// Resident concatenation of `parts` (same schema) in order.
std::shared_ptr<FlatTable> Concat(
    const std::vector<std::shared_ptr<FlatTable>>& parts) {
  auto out = std::make_shared<FlatTable>(kTable);
  uint64_t rows = 0;
  for (const auto& p : parts) rows += p->num_rows();
  for (size_t i = 0; i < parts[0]->num_columns(); ++i) {
    const ColumnPtr& proto = parts[0]->column(i);
    auto col = std::make_shared<Column>(proto->name(), proto->type());
    col->Reserve(rows);
    for (const auto& p : parts) {
      col->AppendRaw(p->column(i)->raw_data(), p->num_rows());
    }
    (void)out->AddColumn(std::move(col));
  }
  return out;
}

struct IndexBuild {
  double ms = 0;
  double storage_frac = 0;
};

/// Builds the imprints every trace statement needs (x, y,
/// classification) and prices them against those columns' bytes.
Result<IndexBuild> BuildIndexes(geocol::ImprintManager& manager,
                                const FlatTable& table) {
  IndexBuild b;
  uint64_t column_bytes = 0;
  Timer t;
  for (const char* name : {"x", "y", "classification"}) {
    GEOCOL_ASSIGN_OR_RETURN(ColumnPtr col, table.GetColumn(name));
    GEOCOL_RETURN_NOT_OK(manager.GetOrBuild(col).status());
    column_bytes += col->size() * col->width();
  }
  b.ms = t.ElapsedMillis();
  b.storage_frac =
      Ratio(static_cast<double>(manager.TotalStorageBytes()),
            static_cast<double>(column_bytes));
  return b;
}

/// Runs `once` cfg.setup_reps times; setup_s is the median.
Result<double> MedianSetup(const Config& cfg,
                           const std::function<Status()>& once) {
  std::vector<double> secs;
  for (int i = 0; i < std::max(1, cfg.setup_reps); ++i) {
    Timer t;
    GEOCOL_RETURN_NOT_OK(once());
    secs.push_back(t.ElapsedSeconds());
  }
  return *Median(secs);
}

/// Engines of the measured tables run as many threads as a window has
/// CPUs, as they would by default on a machine of that size; more threads
/// than CPUs make a statement wait on time-sliced helpers.
geocol::EngineOptions WindowEngine() {
  geocol::EngineOptions eo;
  eo.num_threads = kWindowCpus;
  return eo;
}

sql::SessionOptions InProcessOptions() {
  sql::SessionOptions o;
  o.record_flight = false;
  o.slow_query_ms = -1;
  o.cache_budget_bytes = 0;  // result cache off
  return o;
}

// ---------------------------------------------------------------------
// Process-wide cache counters, read before and after a window.

struct Counters {
  uint64_t result_hits = 0, result_misses = 0, result_evictions = 0;
  uint64_t selection_hits = 0, selection_misses = 0;
  uint64_t chunk_hits = 0, chunk_misses = 0, chunk_evictions = 0;
  ProcIo io;

  static Counters Read() {
    Counters c;
    const cache::CacheStats rs = cache::QueryResultCache::Global().Stats();
    c.result_hits = rs.TotalHits();
    c.result_misses = rs.TotalMisses();
    for (const cache::TierStats& t : rs.tier) c.result_evictions += t.evictions;
    const auto& sel = rs.tier[static_cast<size_t>(cache::Tier::kSelection)];
    c.selection_hits = sel.hits;
    c.selection_misses = sel.misses;
    const cache::ChunkCache::Stats cs = cache::ChunkCache::Global().GetStats();
    c.chunk_hits = cs.hits;
    c.chunk_misses = cs.misses;
    c.chunk_evictions = cs.evictions;
    c.io = ProcIo::Read();
    return c;
  }
};

// ---------------------------------------------------------------------
// Windows.

struct Sample {
  double ms;
  StmtClass cls;
  double end_s;  ///< completion time since the window started
};

/// One timed window. The per-statement vectors run parallel to `sql`.
struct Window {
  std::vector<Sample> samples;  ///< answered statements
  double wall_s = 0;
  double peak_rss_mb = 0;
  Tally tally;
  std::vector<std::string> sql;
  std::vector<uint32_t> digest;
  std::vector<uint8_t> answered;
  uint64_t faulting = 0;  ///< traced: statements that missed the chunk cache
  std::string first_error;

  void Record(std::string text, const Result<sql::ResultSet>& rs, double ms,
              StmtClass cls, double end_s) {
    sql.push_back(std::move(text));
    if (rs.ok()) {
      tally.Add(Outcome::kOk);
      samples.push_back({ms, cls, end_s});
      digest.push_back(sql::ResultSetDigest(*rs));
      answered.push_back(1);
    } else {
      tally.Add(Outcome::kFailed);
      digest.push_back(0);
      answered.push_back(0);
      if (first_error.empty()) first_error = rs.status().ToString();
    }
  }
};

std::vector<double> Latencies(const Window& w, int cls = -1) {
  std::vector<double> out;
  for (const Sample& s : w.samples) {
    if (cls < 0 || static_cast<int>(s.cls) == cls) out.push_back(s.ms);
  }
  return out;
}

double ClassP50(const Window& w, StmtClass c) {
  return Median(Latencies(w, static_cast<int>(c))).value_or(0.0);
}

/// The statements completing first in a window, this share of them, are
/// its warm-up (a cold result cache, a server filling its queue): they are
/// checked like the rest but left out of the end-to-end statistics.
constexpr double kWarmupShare = 0.1;

size_t WarmupCount(size_t samples) {
  return static_cast<size_t>(static_cast<double>(samples) * kWarmupShare);
}

/// End-to-end statistics are medians over the measured statements split
/// into consecutive parts, as many as leave every part enough statements
/// for p99 but at least kMinParts and at most kMaxParts. A burst of
/// machine noise moves them only if it covers half the parts.
constexpr size_t kMinParts = 3;
constexpr size_t kMaxParts = 15;

size_t PartCount(size_t measured) {
  return std::clamp(measured / MinSamplesFor(0.99), kMinParts, kMaxParts);
}

/// A window ends once `min_s` have passed and nothing keeps it `busy`,
/// and kMinParts parts have enough statements for p99 (or the cap is
/// reached).
bool WindowOver(const Config& cfg, double min_s, double elapsed,
                size_t samples, bool busy) {
  if (elapsed < min_s || busy) return false;
  return samples - WarmupCount(samples) >= kMinParts * MinSamplesFor(0.99) ||
         elapsed >= kWindowCap * cfg.seconds;
}

/// Parse, plan and execute under separate stopwatches.
Result<sql::ResultSet> ExecuteTraced(Catalog* catalog, const std::string& text,
                                     Ledger* ledger) {
  Timer t0;
  GEOCOL_ASSIGN_OR_RETURN(sql::SelectStmt stmt, sql::Parse(text));
  const double parse_us = t0.ElapsedMicros();
  Timer t1;
  GEOCOL_ASSIGN_OR_RETURN(sql::PlannedQuery plan,
                          sql::PlanQuery(catalog, std::move(stmt)));
  const double plan_us = t1.ElapsedMicros();
  Timer t2;
  GEOCOL_ASSIGN_OR_RETURN(sql::ResultSet rs, sql::ExecuteQuery(plan));
  ledger->AddSql(parse_us, plan_us, t2.ElapsedMicros());
  return rs;
}

struct NavOptions {
  Ledger* ledger = nullptr;               ///< non-null: traced window
  const geocol::LiveTable* live = nullptr;  ///< traced: time Pin() too
  /// Fixed-work windows (ingest_live) last while `busy` holds instead of
  /// for --seconds.
  std::function<bool()> busy;
  /// Counts answered or failed statements as they complete.
  std::atomic<uint64_t>* progress = nullptr;
};

NavOptions TracedNav(Ledger* ledger) {
  NavOptions opt;
  opt.ledger = ledger;
  return opt;
}

/// Closed loop of one in-process session over the navigation trace,
/// replayed from its first statement.
Window RunNavigation(const Config& cfg, Catalog* catalog,
                     sql::Session& session, const NavOptions& opt) {
  NavigationTrace trace(Extent(cfg), cfg.seed);
  WindowScope scope;
  Window w;
  RssSampler rss;
  rss.Start();
  Timer wall;
  const double min_s = opt.busy ? 0.0 : cfg.seconds;
  uint64_t last_epoch = 0;
  while (!WindowOver(cfg, min_s, wall.ElapsedSeconds(), w.samples.size(),
                     opt.busy && opt.busy())) {
    Statement s = trace.Next();
    bool new_epoch = false;
    if (opt.ledger != nullptr && opt.live != nullptr) {
      Timer tp;
      geocol::EpochSnapshot snap = opt.live->Pin();
      opt.ledger->AddPin(tp.ElapsedMicros());
      new_epoch = snap.epoch != last_epoch;
      last_epoch = snap.epoch;
    }
    const uint64_t misses_before =
        opt.ledger != nullptr ? cache::ChunkCache::Global().GetStats().misses
                              : 0;
    Timer t;
    Result<sql::ResultSet> rs =
        opt.ledger != nullptr ? ExecuteTraced(catalog, s.sql, opt.ledger)
                              : session.Execute(s.sql);
    const double ms = t.ElapsedMillis();
    if (opt.ledger != nullptr) {
      if (cache::ChunkCache::Global().GetStats().misses > misses_before) {
        ++w.faulting;
      }
      if (rs.ok()) opt.ledger->AddStatement(MineProfile(rs->profile));
      if (new_epoch && rs.ok()) opt.ledger->AddFirstRead(ms);
    }
    w.Record(std::move(s.sql), rs, ms, s.cls, wall.ElapsedSeconds());
    if (opt.progress != nullptr) opt.progress->fetch_add(1);
  }
  w.wall_s = wall.ElapsedSeconds();
  w.peak_rss_mb = rss.Stop();
  return w;
}

// ---------------------------------------------------------------------
// Oracle: a serial engine (num_threads = 1, no caches) over a flat table.
// Each statement runs serially; distinct statements are spread over a few
// sessions at once so the check stays short next to the window.

class Oracle {
 public:
  static Result<std::unique_ptr<Oracle>> Make(
      std::shared_ptr<FlatTable> table) {
    auto o = std::unique_ptr<Oracle>(new Oracle());
    geocol::EngineOptions eo;
    eo.num_threads = 1;
    GEOCOL_RETURN_NOT_OK(
        o->catalog_.AddPointCloud(kTable, std::move(table), eo));
    return o;
  }

  /// Compares every answered statement of `w`; a mismatch (or a statement
  /// the oracle cannot answer) turns its outcome into kMismatch and fails
  /// the run.
  void Check(Window* w, Report* rep, const std::string& what) {
    Digest(w->sql);
    int shown = 0;
    for (size_t i = 0; i < w->sql.size(); ++i) {
      if (!w->answered[i]) continue;
      auto it = memo_.find(w->sql[i]);
      if (it != memo_.end() && it->second == w->digest[i]) continue;
      w->tally.Reclassify(Outcome::kOk, Outcome::kMismatch);
      if (shown++ < 3) {
        rep->Fail(what + ": digest mismatch vs serial oracle: " + w->sql[i]);
      }
    }
  }

 private:
  Oracle() = default;

  /// Fills memo_ for every statement of `texts` it lacks; statements the
  /// oracle fails on stay absent.
  void Digest(const std::vector<std::string>& texts) {
    std::vector<const std::string*> todo;
    std::unordered_set<std::string> seen;
    for (const std::string& t : texts) {
      if (memo_.count(t) == 0 && seen.insert(t).second) {
        todo.push_back(&t);
      }
    }
    std::vector<std::optional<uint32_t>> out(todo.size());
    std::atomic<size_t> next{0};
    const size_t workers = std::clamp<size_t>(
        std::thread::hardware_concurrency(), 1, kOracleThreads);
    std::vector<std::thread> threads;
    for (size_t k = 0; k < workers; ++k) {
      threads.emplace_back([&] {
        sql::Session session(&catalog_, InProcessOptions());
        for (size_t i = next.fetch_add(1); i < todo.size();
             i = next.fetch_add(1)) {
          Result<sql::ResultSet> rs = session.Execute(*todo[i]);
          if (rs.ok()) out[i] = sql::ResultSetDigest(*rs);
        }
      });
    }
    for (auto& t : threads) t.join();
    for (size_t i = 0; i < todo.size(); ++i) {
      if (out[i]) memo_.emplace(*todo[i], *out[i]);
    }
  }

  Catalog catalog_;
  std::unordered_map<std::string, uint32_t> memo_;
};

// ---------------------------------------------------------------------
// Shared reporting.

void MergeWindow(const Window& w, Report* rep, const std::string& what) {
  rep->tally.Merge(w.tally);
  if (w.tally.failed + w.tally.refused > 0) {
    rep->Fail(what + ": " + std::to_string(w.tally.failed) + " failed, " +
              std::to_string(w.tally.refused) + " refused; first error: " +
              w.first_error);
  }
}

void EmitEndToEnd(double setup_s, const Window& w, Report* rep) {
  std::vector<Sample> done = w.samples;
  std::sort(done.begin(), done.end(),
            [](const Sample& a, const Sample& b) { return a.end_s < b.end_s; });
  const size_t warmup = WarmupCount(done.size());
  const size_t measured = done.size() - warmup;
  const size_t parts = PartCount(measured);
  std::vector<double> ops, p50, p99;
  double part_start = warmup == 0 ? 0.0 : done[warmup - 1].end_s;
  for (size_t k = 0; k < parts; ++k) {
    const size_t lo = warmup + measured * k / parts;
    const size_t hi = warmup + measured * (k + 1) / parts;
    if (hi == lo) continue;
    std::vector<double> lat;
    for (size_t i = lo; i < hi; ++i) lat.push_back(done[i].ms);
    const double part_end = k + 1 == parts ? w.wall_s : done[hi - 1].end_s;
    ops.push_back(Ratio(static_cast<double>(hi - lo), part_end - part_start));
    part_start = part_end;
    if (auto v = Percentile(lat, 0.50)) p50.push_back(*v);
    if (auto v = Percentile(lat, 0.99)) p99.push_back(*v);
  }
  if (p99.size() < parts) {
    rep->Fail("too few answered statements for p99 in every part: " +
              std::to_string(done.size()));
  }
  rep->metrics = {
      {"setup_s", setup_s, "s"},
      {"ops_per_s", Median(ops).value_or(0.0), "1/s"},
      {"p50_ms", Median(p50).value_or(0.0), "ms"},
      {"p99_ms", Median(p99).value_or(0.0), "ms"},
      {"peak_rss_mb", w.peak_rss_mb, "MB"},
  };  // the order of EndToEndMetricNames()
}

/// Per-layer metrics every traced workload reports the same way.
void EmitTraceCommon(const Window& untraced, const Window& traced,
                     const IndexBuild& build, Sheet* sheet) {
  sheet->Set("imprints.build_ms", build.ms);
  sheet->Set("index.storage_frac", build.storage_frac);
  sheet->Set("stmt.tile_p50_ms", ClassP50(untraced, StmtClass::kTile));
  sheet->Set("stmt.region_p50_ms", ClassP50(untraced, StmtClass::kRegion));
  sheet->Set("stmt.poly_p50_ms", ClassP50(untraced, StmtClass::kPoly));
  sheet->Set("stmt.hot_p50_ms", ClassP50(untraced, StmtClass::kHot));
  sheet->Set("stmt.jitter_p50_ms", ClassP50(untraced, StmtClass::kJitter));
  const double u = Median(Latencies(untraced)).value_or(0.0);
  const double t = Median(Latencies(traced)).value_or(0.0);
  sheet->Set("trace.untraced_p50_ms", u);
  sheet->Set("trace.traced_p50_ms", t);
  sheet->Set("trace.overhead_frac", u > 0 ? t / u - 1 : 0.0);
}

/// chunk.*, io.* and cache.* from counter deltas over `statements`.
void EmitCounterDeltas(const Counters& a, const Counters& b,
                       uint64_t statements, uint64_t faulting, Sheet* sheet) {
  const double n = static_cast<double>(statements);
  const double ch = static_cast<double>(b.chunk_hits - a.chunk_hits);
  const double cm = static_cast<double>(b.chunk_misses - a.chunk_misses);
  sheet->Set("chunk.hit_rate", Ratio(ch, ch + cm));
  sheet->Set("chunk.misses_per_stmt", Ratio(cm, n));
  sheet->Set("chunk.evictions_per_stmt",
             Ratio(static_cast<double>(b.chunk_evictions - a.chunk_evictions),
                   n));
  sheet->Set("chunk.faulting_stmt_frac",
             Ratio(static_cast<double>(faulting), n));
  sheet->Set("io.read_mb_per_stmt",
             Ratio(static_cast<double>(b.io.rchar - a.io.rchar) / 1048576.0,
                   n));
  const double sh = static_cast<double>(b.selection_hits - a.selection_hits);
  const double sm =
      static_cast<double>(b.selection_misses - a.selection_misses);
  sheet->Set("cache.hit_rate", Ratio(sh, sh + sm));
  sheet->Set("cache.evictions",
             static_cast<double>(b.result_evictions - a.result_evictions));
}

/// The untraced window, plus a traced one replaying the same statements
/// when cfg.trace is set.
struct Windows {
  Window untraced;
  std::optional<Window> traced;
  Ledger ledger;
  Counters before, after;  ///< around the window that reports layers
};

/// The per-layer sheet of a traced in-process navigation run.
std::vector<Metric> NavigationLayers(const Windows& ws,
                                     const IndexBuild& build) {
  Sheet sheet;
  std::vector<Metric> layers;
  ws.ledger.Emit(&layers);
  sheet.SetAll(layers);
  EmitCounterDeltas(ws.before, ws.after, ws.traced->sql.size(),
                    ws.traced->faulting, &sheet);
  EmitTraceCommon(ws.untraced, *ws.traced, build, &sheet);
  return sheet.metrics();
}

// ---------------------------------------------------------------------
// pan_zoom

Status RunPanZoom(const Config& cfg, Report* rep) {
  std::shared_ptr<FlatTable> table;
  std::unique_ptr<Catalog> catalog;
  IndexBuild build;
  auto setup = [&]() -> Status {
    catalog.reset();
    table.reset();
    GEOCOL_ASSIGN_OR_RETURN(table,
                            GenerateSurvey(cfg.points, cfg.points, cfg.seed));
    catalog = std::make_unique<Catalog>();
    GEOCOL_RETURN_NOT_OK(
        catalog->AddPointCloud(kTable, table, WindowEngine()));
    GEOCOL_ASSIGN_OR_RETURN(geocol::SpatialQueryEngine * engine,
                            catalog->GetEngine(kTable));
    GEOCOL_ASSIGN_OR_RETURN(build,
                            BuildIndexes(engine->imprint_manager(), *table));
    return Status::OK();
  };
  GEOCOL_ASSIGN_OR_RETURN(const double setup_s, MedianSetup(cfg, setup));
  rep->survey_rows = table->num_rows();

  sql::Session session(catalog.get(), InProcessOptions());
  Windows ws;
  const Counters start = Counters::Read();
  ws.before = start;
  ws.untraced = RunNavigation(cfg, catalog.get(), session, {});
  if (cfg.trace) {
    ws.before = Counters::Read();
    ws.traced =
        RunNavigation(cfg, catalog.get(), session, TracedNav(&ws.ledger));
  }
  ws.after = Counters::Read();

  // Guard: this workload must bypass the result cache and the pager.
  if (ws.after.result_hits != start.result_hits ||
      ws.after.result_misses != start.result_misses) {
    rep->Fail("guard: pan_zoom consulted the result cache");
  }
  if (ws.after.chunk_misses != start.chunk_misses) {
    rep->Fail("guard: pan_zoom faulted chunks");
  }

  GEOCOL_ASSIGN_OR_RETURN(auto oracle, Oracle::Make(table));
  oracle->Check(&ws.untraced, rep, "pan_zoom");
  MergeWindow(ws.untraced, rep, "pan_zoom");
  if (!cfg.trace) {
    EmitEndToEnd(setup_s, ws.untraced, rep);
    return Status::OK();
  }
  oracle->Check(&*ws.traced, rep, "pan_zoom traced");
  MergeWindow(*ws.traced, rep, "pan_zoom traced");
  rep->metrics = NavigationLayers(ws, build);
  return Status::OK();
}

// ---------------------------------------------------------------------
// out_of_core

Status RunOutOfCore(const Config& cfg, Report* rep) {
  const std::string dir = cfg.work_dir + "/sharded";
  std::shared_ptr<geocol::ShardedTable> paged;
  std::unique_ptr<Catalog> catalog;
  IndexBuild build;
  uint64_t budget = 0;
  auto setup = [&]() -> Status {
    catalog.reset();
    paged.reset();
    fs::remove_all(dir);
    {
      GEOCOL_ASSIGN_OR_RETURN(
          std::shared_ptr<FlatTable> survey,
          GenerateSurvey(cfg.points, cfg.points, cfg.seed));
      geocol::ImprintManager manager;
      GEOCOL_ASSIGN_OR_RETURN(build, BuildIndexes(manager, *survey));
      rep->survey_rows = survey->num_rows();
      budget = survey->DataBytes() / kChunkBudgetDivisor;
      geocol::ShardingOptions so;
      so.num_shards = kShards;
      GEOCOL_ASSIGN_OR_RETURN(auto sharded,
                              geocol::ShardedTable::Create(*survey, so));
      GEOCOL_RETURN_NOT_OK(geocol::WriteShardedTableDir(*sharded, dir));
    }  // the resident survey and layout are gone from here on
    cache::ChunkCache::Global().SetBudget(budget);
    GEOCOL_ASSIGN_OR_RETURN(paged, geocol::ReadShardedTableDir(
                                       dir, /*verify_checksums=*/true,
                                       /*paged=*/true));
    catalog = std::make_unique<Catalog>();
    GEOCOL_RETURN_NOT_OK(
        catalog->AddShardedPointCloud(kTable, paged, WindowEngine()));
    // First imprint build of every shard (x, y, classification).
    sql::Session warm(catalog.get(), InProcessOptions());
    GEOCOL_ASSIGN_OR_RETURN(
        sql::ResultSet rs,
        warm.Execute("SELECT COUNT(*) FROM ahn2 WHERE classification "
                     "BETWEEN 0 AND 255"));
    if (rs.num_rows() != 1 ||
        rs.rows[0][0].number != static_cast<double>(rep->survey_rows)) {
      return Status::Corruption("paged layout lost rows");
    }
    return Status::OK();
  };
  GEOCOL_ASSIGN_OR_RETURN(const double setup_s, MedianSetup(cfg, setup));
  rep->notes.push_back(
      {"chunk_cache_budget_mb", std::to_string(budget / 1048576.0)});

  sql::Session session(catalog.get(), InProcessOptions());
  Windows ws;
  cache::ChunkCache::Global().Clear();
  ws.before = Counters::Read();
  ws.untraced = RunNavigation(cfg, catalog.get(), session, {});
  ws.after = Counters::Read();
  auto guard = [&](const Counters& a, const Counters& b, const char* what) {
    if (b.chunk_misses == a.chunk_misses ||
        b.chunk_evictions == a.chunk_evictions) {
      rep->Fail(std::string("guard: ") + what +
                " window had no chunk misses or no evictions");
    }
  };
  guard(ws.before, ws.after, "out_of_core");
  if (cfg.trace) {
    cache::ChunkCache::Global().Clear();
    ws.before = Counters::Read();
    ws.traced =
        RunNavigation(cfg, catalog.get(), session, TracedNav(&ws.ledger));
    ws.after = Counters::Read();
    guard(ws.before, ws.after, "out_of_core traced");
  }
  catalog.reset();
  paged.reset();

  // Oracle: the Hilbert-ordered rows, resident and flat.
  {
    GEOCOL_ASSIGN_OR_RETURN(auto resident,
                            geocol::ReadShardedTableDir(dir, true, false));
    std::vector<std::shared_ptr<FlatTable>> parts;
    for (size_t i = 0; i < resident->num_shards(); ++i) {
      parts.push_back(resident->shard(i).table);
    }
    GEOCOL_ASSIGN_OR_RETURN(auto oracle, Oracle::Make(Concat(parts)));
    oracle->Check(&ws.untraced, rep, "out_of_core");
    if (ws.traced) oracle->Check(&*ws.traced, rep, "out_of_core traced");
  }
  MergeWindow(ws.untraced, rep, "out_of_core");
  if (!cfg.trace) {
    EmitEndToEnd(setup_s, ws.untraced, rep);
    return Status::OK();
  }
  MergeWindow(*ws.traced, rep, "out_of_core traced");
  rep->metrics = NavigationLayers(ws, build);
  return Status::OK();
}

// ---------------------------------------------------------------------
// ingest_live

struct IngestLog {
  std::vector<double> stage_ms, commit_ms;
  uint64_t wchar = 0;
  uint64_t rows = 0;
  Tally tally;
  std::string first_error;
};

struct LiveState {
  std::shared_ptr<FlatTable> base;
  std::vector<std::shared_ptr<FlatTable>> batches;
  std::shared_ptr<geocol::LiveTable> live;
  std::unique_ptr<Catalog> catalog;
  IndexBuild build;
};

Status SetupLive(const Config& cfg, const std::string& dir, LiveState* st) {
  st->catalog.reset();
  st->live.reset();
  st->base.reset();
  st->batches.clear();
  fs::remove_all(dir);
  GEOCOL_ASSIGN_OR_RETURN(st->base,
                          GenerateSurvey(cfg.points, cfg.points, cfg.seed));
  // The appended rows: a second survey of the same extent.
  GEOCOL_ASSIGN_OR_RETURN(
      std::shared_ptr<FlatTable> extra,
      GenerateSurvey(cfg.points, kIngestBatches * kIngestBatchRows,
                     cfg.seed ^ 0x5eed5eedull));
  for (int b = 0; b < kIngestBatches; ++b) {
    const uint64_t begin = b * kIngestBatchRows;
    if (begin >= extra->num_rows()) break;
    st->batches.push_back(SliceRows(
        *extra, begin,
        std::min<uint64_t>(kIngestBatchRows, extra->num_rows() - begin)));
  }
  geocol::LiveTableOptions lo;
  lo.engine = WindowEngine();
  lo.dir = dir;
  GEOCOL_ASSIGN_OR_RETURN(st->live, geocol::LiveTable::Create(st->base, lo));
  st->catalog = std::make_unique<Catalog>();
  GEOCOL_RETURN_NOT_OK(st->catalog->AddLivePointCloud(kTable, st->live));
  GEOCOL_ASSIGN_OR_RETURN(
      st->build, BuildIndexes(*st->live->imprint_manager(),
                              *st->live->Pin().table));
  return Status::OK();
}

/// One window: the writer appends every batch while the reader replays
/// the trace. The window is this fixed amount of work, not --seconds.
Window RunIngestWindow(const Config& cfg, LiveState* st, Ledger* ledger,
                       IngestLog* log) {
  WindowScope scope;  // the writer runs on the window's CPUs too
  std::atomic<bool> writer_done{false};
  std::atomic<uint64_t> reads{0};
  std::thread writer([&] {
    const ProcIo io0 = ProcIo::Read();
    geocol::TableAppender appender(st->live);
    for (size_t k = 0; k < st->batches.size(); ++k) {
      while (reads.load() < k * kReadsPerCommit) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      Timer ts;
      Status s = appender.StageBatch(*st->batches[k]);
      log->stage_ms.push_back(ts.ElapsedMillis());
      if (s.ok()) {
        Timer tc;
        s = appender.Commit();
        log->commit_ms.push_back(tc.ElapsedMillis());
      }
      log->tally.Add(s.ok() ? Outcome::kOk : Outcome::kFailed);
      if (!s.ok()) {
        log->first_error = s.ToString();
        break;
      }
      log->rows += st->batches[k]->num_rows();
    }
    log->wchar = ProcIo::Read().wchar - io0.wchar;
    writer_done.store(true);
  });
  sql::Session session(st->catalog.get(), InProcessOptions());
  NavOptions opt;
  opt.ledger = ledger;
  opt.live = st->live.get();
  opt.progress = &reads;
  const uint64_t total_reads = st->batches.size() * kReadsPerCommit;
  opt.busy = [&] { return !writer_done.load() || reads.load() < total_reads; };
  Window w = RunNavigation(cfg, st->catalog.get(), session, opt);
  writer.join();
  return w;
}

/// After a window: the epoch guard, the durable reopen, and the final
/// epoch against a flat oracle holding base + every batch.
Status CheckLive(const Config& cfg, const std::string& dir,
                 const LiveState& st, const IngestLog& log, Report* rep) {
  rep->tally.Merge(log.tally);
  if (log.tally.failed > 0) {
    rep->Fail("ingest_live: commit failed: " + log.first_error);
  }
  if (st.live->epoch() != st.batches.size()) {
    rep->Fail("guard: final epoch " + std::to_string(st.live->epoch()) +
              " != commits " + std::to_string(st.batches.size()));
  }
  std::vector<std::shared_ptr<FlatTable>> parts = {st.base};
  parts.insert(parts.end(), st.batches.begin(), st.batches.end());
  std::shared_ptr<FlatTable> expected = Concat(parts);
  GEOCOL_ASSIGN_OR_RETURN(auto reopened, geocol::LiveTable::Open(dir));
  if (reopened->Pin().table->num_rows() != expected->num_rows()) {
    rep->Fail("ingest_live: reopened table has " +
              std::to_string(reopened->Pin().table->num_rows()) +
              " rows, expected " + std::to_string(expected->num_rows()));
  }
  Catalog reopened_catalog;
  GEOCOL_RETURN_NOT_OK(reopened_catalog.AddLivePointCloud(kTable, reopened));
  sql::Session session(&reopened_catalog, InProcessOptions());
  GEOCOL_ASSIGN_OR_RETURN(auto oracle, Oracle::Make(expected));
  Window check;
  for (Statement& s :
       NavigationStatements(Extent(cfg), cfg.seed, kIngestCheckStatements)) {
    Result<sql::ResultSet> rs = session.Execute(s.sql);
    check.Record(std::move(s.sql), rs, 0, s.cls, 0);
  }
  oracle->Check(&check, rep, "ingest_live final epoch");
  MergeWindow(check, rep, "ingest_live final epoch");
  return Status::OK();
}

Status RunIngest(const Config& cfg, Report* rep) {
  const std::string dir = cfg.work_dir + "/live";
  LiveState st;
  GEOCOL_ASSIGN_OR_RETURN(const double setup_s, MedianSetup(cfg, [&] {
                            return SetupLive(cfg, dir, &st);
                          }));
  rep->survey_rows = st.base->num_rows();
  rep->notes.push_back(
      {"ingest", JsonString(std::to_string(st.batches.size()) + " x " +
                            std::to_string(kIngestBatchRows) +
                            " rows; durable LiveTable, default flush policy: "
                            "every Commit writes the next generation with "
                            "WriteTableDir (fsync + manifest rename) before "
                            "the epoch swap")});

  IngestLog log;
  Window untraced = RunIngestWindow(cfg, &st, nullptr, &log);
  GEOCOL_RETURN_NOT_OK(CheckLive(cfg, dir, st, log, rep));
  MergeWindow(untraced, rep, "ingest_live");
  if (!cfg.trace) {
    EmitEndToEnd(setup_s, untraced, rep);
    return Status::OK();
  }
  // The traced window appends the same rows to a fresh table.
  GEOCOL_RETURN_NOT_OK(SetupLive(cfg, dir, &st));
  Ledger ledger;
  IngestLog tlog;
  Window traced = RunIngestWindow(cfg, &st, &ledger, &tlog);
  GEOCOL_RETURN_NOT_OK(CheckLive(cfg, dir, st, tlog, rep));
  MergeWindow(traced, rep, "ingest_live traced");
  Sheet sheet;
  std::vector<Metric> layers;
  ledger.Emit(&layers);
  sheet.SetAll(layers);
  sheet.Set("ingest.stage_ms", Median(tlog.stage_ms).value_or(0.0));
  sheet.Set("ingest.commit_ms", Median(tlog.commit_ms).value_or(0.0));
  sheet.Set("ingest.write_bytes_per_row",
            Ratio(static_cast<double>(tlog.wchar),
                  static_cast<double>(tlog.rows)));
  double busy_ms = 0;
  for (double v : tlog.stage_ms) busy_ms += v;
  for (double v : tlog.commit_ms) busy_ms += v;
  sheet.Set("ingest.rows_per_s",
            Ratio(static_cast<double>(tlog.rows), busy_ms / 1e3));
  sheet.Set("ingest.commits", static_cast<double>(tlog.commit_ms.size()));
  sheet.Set("live.final_epoch", static_cast<double>(st.live->epoch()));
  EmitTraceCommon(untraced, traced, st.build, &sheet);
  rep->metrics = sheet.metrics();
  return Status::OK();
}

// ---------------------------------------------------------------------
// dashboard_serve

struct ServeState {
  std::shared_ptr<FlatTable> table;
  std::unique_ptr<Catalog> catalog;
  std::unique_ptr<server::Server> srv;
  std::string flight_log;
  IndexBuild build;

  void Teardown() {
    if (srv) srv->Stop();
    srv.reset();
    geocol::telemetry::FlightRecorder::Global().Close();
    catalog.reset();
    table.reset();
  }
  ~ServeState() { Teardown(); }
};

/// Set up the way `geocol serve` sets up by default: result cache bound
/// before serving, 2 workers, queue 128, shared-scan batching, flight
/// recorder open.
Status SetupServe(const Config& cfg, ServeState* st) {
  st->Teardown();
  const std::string flight_dir = cfg.work_dir + "/flight";
  fs::remove_all(flight_dir);
  fs::create_directories(flight_dir);
  st->flight_log = flight_dir + "/flight.gfr";
  GEOCOL_ASSIGN_OR_RETURN(st->table,
                          GenerateSurvey(cfg.points, cfg.points, cfg.seed));
  st->catalog = std::make_unique<Catalog>();
  GEOCOL_RETURN_NOT_OK(
      st->catalog->AddPointCloud(kTable, st->table, WindowEngine()));
  GEOCOL_ASSIGN_OR_RETURN(geocol::SpatialQueryEngine * engine,
                          st->catalog->GetEngine(kTable));
  engine->set_cache_budget(kDashboardCacheBytes);
  GEOCOL_ASSIGN_OR_RETURN(st->build,
                          BuildIndexes(engine->imprint_manager(), *st->table));
  GEOCOL_RETURN_NOT_OK(
      geocol::telemetry::FlightRecorder::Global().Open(st->flight_log));
  server::ServerOptions so;
  so.workers = 2;
  so.queue_capacity = 128;
  so.shared_scan_batching = true;
  st->srv = std::make_unique<server::Server>(st->catalog.get(), so);
  return st->srv->Start();
}

Result<server::Client> Connect(int port, const std::string& id) {
  server::Client::Options o;
  o.port = port;
  o.client_id = id;
  return server::Client::Connect(o);
}

/// Four closed-loop connections with no think time.
Result<Window> RunDashboardWindow(const Config& cfg, int port) {
  cache::QueryResultCache::Global().Clear();
  std::vector<server::Client> clients;
  for (int c = 0; c < kConnections; ++c) {
    GEOCOL_ASSIGN_OR_RETURN(server::Client cl,
                            Connect(port, "dash-" + std::to_string(c)));
    clients.push_back(std::move(cl));
  }
  WindowScope scope;  // server threads included
  std::vector<Window> per(kConnections);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> answered{0};
  RssSampler rss;
  rss.Start();
  Timer wall;
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      DashboardStream stream(Extent(cfg), cfg.seed, c);
      Window& w = per[c];
      while (!stop.load()) {
        Statement s = stream.Next();
        Timer t;
        auto out = clients[c].Query(s.sql);
        const double ms = t.ElapsedMillis();
        w.sql.push_back(std::move(s.sql));
        if (out.ok() && out->ok) {
          w.tally.Add(Outcome::kOk);
          w.samples.push_back({ms, s.cls, wall.ElapsedSeconds()});
          w.digest.push_back(sql::ResultSetDigest(out->result));
          w.answered.push_back(1);
          answered.fetch_add(1);
          continue;
        }
        w.digest.push_back(0);
        w.answered.push_back(0);
        if (!out.ok()) {
          w.tally.Add(Outcome::kFailed);
          if (w.first_error.empty()) w.first_error = out.status().ToString();
          break;  // the connection is gone
        }
        const bool shed = out->error.code == server::ErrorCode::kBusy ||
                          out->error.code == server::ErrorCode::kRateLimited;
        w.tally.Add(shed ? Outcome::kRefused : Outcome::kFailed);
        if (w.first_error.empty()) w.first_error = out->error.message;
      }
    });
  }
  while (!WindowOver(cfg, cfg.seconds, wall.ElapsedSeconds(), answered.load(),
                     false)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true);
  for (auto& t : threads) t.join();
  Window all;
  all.wall_s = wall.ElapsedSeconds();
  all.peak_rss_mb = rss.Stop();
  for (Window& w : per) {
    all.samples.insert(all.samples.end(), w.samples.begin(), w.samples.end());
    all.sql.insert(all.sql.end(), std::make_move_iterator(w.sql.begin()),
                   std::make_move_iterator(w.sql.end()));
    all.digest.insert(all.digest.end(), w.digest.begin(), w.digest.end());
    all.answered.insert(all.answered.end(), w.answered.begin(),
                        w.answered.end());
    all.tally.Merge(w.tally);
    if (all.first_error.empty()) all.first_error = w.first_error;
  }
  return all;
}

/// Median over `pairs` of an interleaved A/B difference, per statement.
double InterleavedDiffUs(int pairs, size_t n,
                         const std::function<double(bool)>& batch_us) {
  std::vector<double> diffs;
  for (int i = 0; i < pairs; ++i) {
    double a = 0, b = 0;
    if (i % 2 == 0) {
      a = batch_us(true);
      b = batch_us(false);
    } else {
      b = batch_us(false);
      a = batch_us(true);
    }
    diffs.push_back((a - b) / static_cast<double>(n));
  }
  return *Median(diffs);
}

/// Traced-run probes through public calls on the served catalog.
Status ProbeServe(const Config& cfg, ServeState* st, Ledger* ledger,
                  Sheet* sheet) {
  const std::vector<std::string> hot =
      DashboardStream::HotPool(Extent(cfg), cfg.seed);
  // Worker-equivalent session: default options, like the server's.
  sql::Session session(st->catalog.get(), sql::SessionOptions());
  for (const std::string& s : hot) {
    GEOCOL_RETURN_NOT_OK(session.Execute(s).status());
  }

  // SQL and core layers on a sample of connection 0's stream.
  DashboardStream stream(Extent(cfg), cfg.seed, 0);
  for (int i = 0; i < 256; ++i) {
    GEOCOL_ASSIGN_OR_RETURN(
        sql::ResultSet rs,
        ExecuteTraced(st->catalog.get(), stream.Next().sql, ledger));
    ledger->AddStatement(MineProfile(rs.profile));
  }

  // server.overhead_us: one client, no other load, against the same
  // statement executed in process (both answered from the result cache).
  GEOCOL_ASSIGN_OR_RETURN(server::Client client,
                          Connect(st->srv->port(), "probe"));
  std::vector<double> diffs;
  for (int round = 0; round < 3; ++round) {
    for (const std::string& s : hot) {
      Timer tc;
      auto out = client.Query(s);
      const double client_us = tc.ElapsedMicros();
      if (!out.ok() || !out->ok) return Status::Internal("probe query failed");
      Timer ts;
      GEOCOL_RETURN_NOT_OK(session.Execute(s).status());
      diffs.push_back(client_us - ts.ElapsedMicros());
    }
  }
  sheet->Set("server.overhead_us", *Median(diffs));

  // recorder.us_per_stmt: the hot pool with the recorder open vs closed,
  // batches interleaved as in E17.
  auto& recorder = geocol::telemetry::FlightRecorder::Global();
  Status probe_status;
  const double rec_us = InterleavedDiffUs(11, hot.size(), [&](bool on) {
    recorder.Close();
    if (on) {
      Status s = recorder.Open(st->flight_log);
      if (!s.ok()) probe_status = s;
    }
    Timer t;
    for (const std::string& s : hot) {
      Status q = session.Execute(s).status();
      if (!q.ok()) probe_status = q;
    }
    return t.ElapsedMicros();
  });
  recorder.Close();
  GEOCOL_RETURN_NOT_OK(recorder.Open(st->flight_log));
  GEOCOL_RETURN_NOT_OK(probe_status);
  sheet->Set("recorder.us_per_stmt", rec_us);
  return Status::OK();
}

Status RunDashboard(const Config& cfg, Report* rep) {
  ServeState st;
  GEOCOL_ASSIGN_OR_RETURN(const double setup_s, MedianSetup(cfg, [&] {
                            return SetupServe(cfg, &st);
                          }));
  rep->survey_rows = st.table->num_rows();
  const int port = st.srv->port();

  const Counters c0 = Counters::Read();
  const server::ServerStats s0 = st.srv->stats();
  GEOCOL_ASSIGN_OR_RETURN(Window untraced, RunDashboardWindow(cfg, port));
  const Counters c1 = Counters::Read();
  const server::ServerStats s1 = st.srv->stats();
  std::optional<Window> traced;
  Counters c2;
  server::ServerStats s2;
  if (cfg.trace) {
    GEOCOL_ASSIGN_OR_RETURN(traced, RunDashboardWindow(cfg, port));
    c2 = Counters::Read();
    s2 = st.srv->stats();
  }
  // Guard: the result cache and shared-scan batching must both engage.
  auto guard = [&](const Counters& a, const Counters& b,
                   const server::ServerStats& sa,
                   const server::ServerStats& sb, const char* what) {
    if (b.result_hits == a.result_hits) {
      rep->Fail(std::string("guard: no result-cache hits in ") + what);
    }
    if (sb.batch_members == sa.batch_members) {
      rep->Fail(std::string("guard: no batched statements in ") + what);
    }
  };
  guard(c0, c1, s0, s1, "dashboard_serve");
  if (traced) guard(c1, c2, s1, s2, "dashboard_serve traced");

  Sheet sheet;
  Ledger ledger;
  if (cfg.trace) {
    EmitCounterDeltas(c1, c2, traced->sql.size(), 0, &sheet);
    sheet.Set("cache.mb",
              cache::QueryResultCache::Global().bytes_used() / 1048576.0);
    const uint64_t answered = s2.queries_ok - s1.queries_ok;
    sheet.Set("server.batched_frac",
              Ratio(static_cast<double>(s2.batch_members - s1.batch_members),
                    static_cast<double>(answered)));
    sheet.Set("server.queue_max_depth",
              static_cast<double>(s2.queue_max_depth));
    sheet.Set("server.shed",
              static_cast<double>(s2.shed_busy + s2.shed_rate_limited -
                                  s1.shed_busy - s1.shed_rate_limited));
    GEOCOL_RETURN_NOT_OK(ProbeServe(cfg, &st, &ledger, &sheet));
  }
  st.srv->Stop();

  // Every reply against an in-process serial session.
  GEOCOL_ASSIGN_OR_RETURN(auto oracle, Oracle::Make(st.table));
  oracle->Check(&untraced, rep, "dashboard_serve");
  MergeWindow(untraced, rep, "dashboard_serve");
  if (!cfg.trace) {
    EmitEndToEnd(setup_s, untraced, rep);
    return Status::OK();
  }
  oracle->Check(&*traced, rep, "dashboard_serve traced");
  MergeWindow(*traced, rep, "dashboard_serve traced");
  std::vector<Metric> layers;
  ledger.Emit(&layers);
  sheet.SetAll(layers);
  EmitTraceCommon(untraced, *traced, st.build, &sheet);
  rep->metrics = sheet.metrics();
  return Status::OK();
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "pan_zoom", "dashboard_serve", "ingest_live", "out_of_core"};
  return names;
}

const std::vector<std::string>& EndToEndMetricNames() {
  static const std::vector<std::string> names = {
      "setup_s", "ops_per_s", "p50_ms", "p99_ms", "peak_rss_mb"};
  return names;
}

std::vector<std::string> PerLayerMetricNames() {
  std::vector<std::string> names;
  for (const Metric& m : PerLayerSheet()) names.push_back(m.name);
  return names;
}

Status RunWorkload(const Config& config, Report* report) {
  if (config.workload == "pan_zoom") return RunPanZoom(config, report);
  if (config.workload == "dashboard_serve") return RunDashboard(config, report);
  if (config.workload == "ingest_live") return RunIngest(config, report);
  if (config.workload == "out_of_core") return RunOutOfCore(config, report);
  return Status::InvalidArgument("unknown workload '" + config.workload + "'");
}

}  // namespace perfbench
