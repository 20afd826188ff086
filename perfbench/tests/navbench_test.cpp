// Tests of the navigation benchmark's own logic: seeded statement streams,
// the percentile helper, outcome accounting and profile mining.
//
//   cmake --build .bench_build/perfbench --target navbench_test
//   .bench_build/perfbench/navbench_test
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/spatial_engine.h"
#include "geom/wkt.h"
#include "ledger.h"
#include "pointcloud/generator.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace {

int failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,     \
                   __LINE__, #cond);                                  \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

using namespace perfbench;

const geocol::Box kExtent = SurveyOptions(2000000, 1).extent;

std::vector<std::string> Sql(const std::vector<Statement>& v) {
  std::vector<std::string> out;
  for (const Statement& s : v) out.push_back(s.sql);
  return out;
}

std::vector<std::string> Dashboard(uint64_t seed, int connection, int n) {
  DashboardStream stream(kExtent, seed, connection);
  std::vector<std::string> out;
  for (int i = 0; i < n; ++i) out.push_back(stream.Next().sql);
  return out;
}

void TestSeededStreams() {
  const auto a = Sql(NavigationStatements(kExtent, 7, 3000));
  const auto b = Sql(NavigationStatements(kExtent, 7, 3000));
  const auto c = Sql(NavigationStatements(kExtent, 8, 3000));
  CHECK(a == b);  // byte-identical for one seed
  CHECK(a != c);
  size_t same = 0;
  for (size_t i = 0; i < a.size(); ++i) same += a[i] == c[i];
  CHECK(same == 0);

  // Viewports of one trace are unique, and the class mix is 60/20/20.
  std::vector<std::string> sorted = a;
  std::sort(sorted.begin(), sorted.end());
  CHECK(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end());
  int count[kNumClasses] = {};
  for (const Statement& s : NavigationStatements(kExtent, 7, 3000)) {
    ++count[static_cast<int>(s.cls)];
  }
  CHECK(count[0] > 1650 && count[0] < 1950);
  CHECK(count[1] > 500 && count[1] < 700);
  CHECK(count[2] > 500 && count[2] < 700);

  CHECK(Dashboard(7, 0, 500) == Dashboard(7, 0, 500));
  CHECK(Dashboard(7, 0, 500) != Dashboard(8, 0, 500));
  CHECK(Dashboard(7, 0, 500) != Dashboard(7, 1, 500));
  CHECK(DashboardStream::HotPool(kExtent, 7) ==
        DashboardStream::HotPool(kExtent, 7));
  CHECK(DashboardStream::HotPool(kExtent, 7) !=
        DashboardStream::HotPool(kExtent, 8));
  CHECK(DashboardStream::HotPool(kExtent, 7).size() == 64);
}

void TestPercentile() {
  std::vector<double> v;
  for (int i = 1; i <= 999; ++i) v.push_back(i);
  CHECK(!Percentile(v, 0.99).has_value());  // only 9 samples beyond
  v.push_back(1000);
  CHECK(Percentile(v, 0.99).value_or(-1) == 990);  // exactly 10 beyond
  CHECK(MinSamplesFor(0.99) == 1000);
  CHECK(MinSamplesFor(0.5) == 20);
  CHECK(!Percentile({}, 0.5).has_value());

  // For every size: reported iff at least 10 samples lie above it.
  for (double q : {0.5, 0.9, 0.99}) {
    for (size_t n = 1; n <= 1500; n += 7) {
      std::vector<double> s;
      for (size_t i = 0; i < n; ++i) s.push_back(static_cast<double>(n - i));
      const std::optional<double> p = Percentile(s, q);
      CHECK(p.has_value() == (n >= MinSamplesFor(q)));
      if (p) {
        size_t beyond = 0;
        for (double x : s) beyond += x > *p;
        CHECK(beyond >= kMinBeyond);
      }
    }
  }
}

void TestTally() {
  Tally t;
  for (int i = 0; i < 7; ++i) t.Add(Outcome::kOk);
  t.Add(Outcome::kFailed);
  t.Add(Outcome::kRefused);
  t.Add(Outcome::kRefused);
  CHECK(t.attempted == 10);
  CHECK(t.bad() == 3);  // a refusal is a failure against the attempts
  CHECK(t.fail_frac() == 0.3);
  t.Reclassify(Outcome::kOk, Outcome::kMismatch);  // oracle disagreed
  CHECK(t.attempted == 10);
  CHECK(t.bad() == 4);
  const std::string line =
      ResultJson(t.bad() == 0, t.attempted, t.bad(), {{"p50_ms", 1.5, "ms"}});
  CHECK(line ==
        "{\"correct\": false, \"attempted\": 10, \"failed\": 4, \"metrics\": "
        "{\"p50_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}}");
}

void TestMineProfile() {
  // Mines a real engine profile, so a change of span names or of the
  // refine detail format shows up here.
  geocol::AhnGenerator gen(SurveyOptions(20000, 3));
  auto table = gen.GenerateTable(20000);
  CHECK(table.ok());
  if (!table.ok()) return;
  geocol::EngineOptions opts;
  opts.num_threads = 1;
  geocol::SpatialQueryEngine engine(*table, opts);
  const geocol::Box e = SurveyOptions(20000, 3).extent;
  const double cx = (e.min_x + e.max_x) / 2, cy = (e.min_y + e.max_y) / 2;
  const double r = e.width() / 4;
  char wkt[256];
  std::snprintf(wkt, sizeof(wkt),
                "POLYGON((%f %f, %f %f, %f %f, %f %f))", cx - r, cy - r,
                cx + r, cy - r / 2, cx, cy + r, cx - r, cy - r);
  auto geom = geocol::ParseWkt(wkt);
  CHECK(geom.ok());
  if (!geom.ok()) return;
  auto sel = engine.Select(*geom, 0.0, {});
  CHECK(sel.ok());
  if (!sel.ok()) return;
  const StatementLayers s = MineProfile(sel->profile);
  CHECK(s.filtered && s.refined && !s.routed && !s.cache_hit);
  CHECK(s.candidates == sel->refine.candidates);
  CHECK(s.selected == sel->row_ids.size());
  CHECK(s.refine_in == sel->refine.candidates);
  CHECK(s.exact_tests == sel->refine.exact_tests);
  CHECK(s.cells_boundary == sel->refine.cells_boundary);
  CHECK(s.cells_all == sel->refine.cells_inside + sel->refine.cells_boundary +
                           sel->refine.cells_outside);
  CHECK(s.lines_total == sel->filter_x.lines_total + sel->filter_y.lines_total);
  CHECK(s.lines_probed ==
        sel->filter_x.lines_candidate + sel->filter_y.lines_candidate);
}

/// The "name" values of one top-level array of BENCHMARK.json, in order.
std::vector<std::string> JsonNames(const std::string& doc,
                                   const std::string& key) {
  std::vector<std::string> names;
  size_t pos = doc.find("\"" + key + "\"");
  if (pos == std::string::npos) return names;
  const size_t end = doc.find(']', pos);
  const std::string tag = "\"name\": \"";
  while ((pos = doc.find(tag, pos)) != std::string::npos && pos < end) {
    pos += tag.size();
    names.push_back(doc.substr(pos, doc.find('"', pos) - pos));
  }
  return names;
}

void TestBenchmarkJson() {
  // BENCHMARK.json and navbench must agree on every metric name, so a
  // traced run emits exactly the per-layer list and an untraced one the
  // end-to-end list.
  std::ifstream in(PERFBENCH_BENCHMARK_JSON);
  CHECK(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string doc = buf.str();
  CHECK(JsonNames(doc, "end_to_end") == EndToEndMetricNames());
  CHECK(JsonNames(doc, "per_layer") == PerLayerMetricNames());
  CHECK(JsonNames(doc, "workloads").size() >= 2);
  for (const std::string& w : JsonNames(doc, "workloads")) {
    CHECK(std::find(WorkloadNames().begin(), WorkloadNames().end(), w) !=
          WorkloadNames().end());
  }
}

}  // namespace

int main() {
  TestBenchmarkJson();
  TestSeededStreams();
  TestPercentile();
  TestTally();
  TestMineProfile();
  if (failures > 0) {
    std::fprintf(stderr, "navbench_test: %d check(s) failed\n", failures);
    return 1;
  }
  std::printf("navbench_test: all checks passed\n");
  return 0;
}
