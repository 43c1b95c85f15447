#include "common/bench_report.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/error.h"
#include "common/json.h"

namespace mandipass::common {

namespace {

Json metrics_to_json(const obs::MetricsSnapshot& metrics) {
  Json::Array counters;
  counters.reserve(metrics.counters.size());
  for (const auto& c : metrics.counters) {
    Json entry{Json::Object{}};
    entry.add("name", c.name);
    entry.add("value", static_cast<double>(c.value));
    counters.push_back(std::move(entry));
  }
  Json::Array gauges;
  gauges.reserve(metrics.gauges.size());
  for (const auto& g : metrics.gauges) {
    Json entry{Json::Object{}};
    entry.add("name", g.name);
    entry.add("value", g.value);
    gauges.push_back(std::move(entry));
  }
  Json::Array histograms;
  histograms.reserve(metrics.histograms.size());
  for (const auto& h : metrics.histograms) {
    Json entry{Json::Object{}};
    entry.add("name", h.name);
    entry.add("count", static_cast<double>(h.count));
    entry.add("sum_us", h.sum_us);
    entry.add("min_us", h.min_us);
    entry.add("max_us", h.max_us);
    entry.add("p50_us", h.p50_us);
    entry.add("p95_us", h.p95_us);
    entry.add("p99_us", h.p99_us);
    histograms.push_back(std::move(entry));
  }
  Json out{Json::Object{}};
  out.add("counters", Json(std::move(counters)));
  out.add("gauges", Json(std::move(gauges)));
  out.add("histograms", Json(std::move(histograms)));
  return out;
}

std::uint64_t as_u64(const Json& value, std::string_view what) {
  const double v = value.as_number();
  if (v < 0.0 || std::floor(v) != v) {
    throw SerializationError("bench report: " + std::string(what) +
                             " is not a non-negative integer");
  }
  return static_cast<std::uint64_t>(v);
}

obs::MetricsSnapshot metrics_from_json(const Json& json) {
  obs::MetricsSnapshot metrics;
  for (const auto& entry : json.at("counters").as_array()) {
    obs::CounterSnapshot c;
    c.name = entry.at("name").as_string();
    c.value = as_u64(entry.at("value"), "counter " + c.name);
    metrics.counters.push_back(std::move(c));
  }
  for (const auto& entry : json.at("gauges").as_array()) {
    obs::GaugeSnapshot g;
    g.name = entry.at("name").as_string();
    g.value = entry.at("value").as_number();
    metrics.gauges.push_back(std::move(g));
  }
  for (const auto& entry : json.at("histograms").as_array()) {
    obs::HistogramSnapshot h;
    h.name = entry.at("name").as_string();
    h.count = as_u64(entry.at("count"), "histogram " + h.name);
    h.sum_us = entry.at("sum_us").as_number();
    h.min_us = entry.at("min_us").as_number();
    h.max_us = entry.at("max_us").as_number();
    h.p50_us = entry.at("p50_us").as_number();
    h.p95_us = entry.at("p95_us").as_number();
    h.p99_us = entry.at("p99_us").as_number();
    metrics.histograms.push_back(std::move(h));
  }
  return metrics;
}

const obs::CounterSnapshot* find_counter(const obs::MetricsSnapshot& metrics,
                                         std::string_view name) {
  for (const auto& c : metrics.counters) {
    if (c.name == name) {
      return &c;
    }
  }
  return nullptr;
}

const obs::HistogramSnapshot* find_histogram(
    const obs::MetricsSnapshot& metrics, std::string_view name) {
  for (const auto& h : metrics.histograms) {
    if (h.name == name) {
      return &h;
    }
  }
  return nullptr;
}

const BenchVerdict* find_verdict(const std::vector<BenchVerdict>& verdicts,
                                 std::string_view name) {
  for (const auto& v : verdicts) {
    if (v.name == name) {
      return &v;
    }
  }
  return nullptr;
}

double tolerance_for(const CompareOptions& options, std::string_view metric,
                     double fallback) {
  const auto it = options.metric_tol.find(metric);
  return it != options.metric_tol.end() ? it->second : fallback;
}

std::string fmt_double(double v) {
  std::ostringstream oss;
  oss << v;
  return oss.str();
}

}  // namespace

std::string report_to_json(const BenchReport& report) {
  MANDIPASS_EXPECTS(!report.bench.empty());
  Json root{Json::Object{}};
  root.add("schema", static_cast<double>(report.schema));
  root.add("bench", report.bench);
  root.add("git_sha", report.git_sha);
  root.add("threads", static_cast<double>(report.threads));
  root.add("quick", report.quick);
  root.add("wall_s", report.wall_s);
  root.add("cpu_s", report.cpu_s);
  root.add("metrics", metrics_to_json(report.metrics));
  Json::Array verdicts;
  verdicts.reserve(report.verdicts.size());
  for (const auto& v : report.verdicts) {
    Json entry{Json::Object{}};
    entry.add("name", v.name);
    entry.add("pass", v.pass);
    entry.add("detail", v.detail);
    verdicts.push_back(std::move(entry));
  }
  root.add("verdicts", Json(std::move(verdicts)));
  return root.dump(2);
}

BenchReport report_from_json(std::string_view text) {
  const Json root = Json::parse(text);
  BenchReport report;
  report.schema = static_cast<std::int64_t>(as_u64(root.at("schema"), "schema"));
  if (report.schema != kBenchSchemaVersion) {
    throw SerializationError("bench report: unsupported schema version " +
                             std::to_string(report.schema) + " (expected " +
                             std::to_string(kBenchSchemaVersion) + ")");
  }
  report.bench = root.at("bench").as_string();
  report.git_sha = root.at("git_sha").as_string();
  report.threads = static_cast<std::int64_t>(as_u64(root.at("threads"), "threads"));
  report.quick = root.at("quick").as_bool();
  report.wall_s = root.at("wall_s").as_number();
  report.cpu_s = root.at("cpu_s").as_number();
  report.metrics = metrics_from_json(root.at("metrics"));
  for (const auto& entry : root.at("verdicts").as_array()) {
    BenchVerdict v;
    v.name = entry.at("name").as_string();
    v.pass = entry.at("pass").as_bool();
    v.detail = entry.at("detail").as_string();
    report.verdicts.push_back(std::move(v));
  }
  return report;
}

void write_report(const BenchReport& report, const std::string& path) {
  const std::string body = report_to_json(report);
  std::ofstream out(path);
  if (!out) {
    throw SerializationError("bench report: cannot open '" + path +
                             "' for writing");
  }
  out << body << '\n';
  out.flush();
  if (!out) {
    throw SerializationError("bench report: write to '" + path + "' failed");
  }
}

BenchReport read_report(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw SerializationError("bench report: cannot open '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) {
    throw SerializationError("bench report: read from '" + path + "' failed");
  }
  return report_from_json(buffer.str());
}

CompareResult compare_reports(const BenchReport& baseline,
                              const BenchReport& current,
                              const CompareOptions& options) {
  CompareResult result;
  const auto note = [&result](std::string msg) {
    result.messages.push_back(std::move(msg));
  };
  const auto flag = [&](std::string msg) {
    result.regression = true;
    note("REGRESSION: " + std::move(msg));
  };

  if (baseline.schema != current.schema) {
    result.error = true;
    note("ERROR: schema version mismatch (" + std::to_string(baseline.schema) +
         " vs " + std::to_string(current.schema) + ")");
    return result;
  }
  if (baseline.bench != current.bench) {
    result.error = true;
    note("ERROR: bench name mismatch ('" + baseline.bench + "' vs '" +
         current.bench + "')");
    return result;
  }
  if (baseline.quick != current.quick) {
    result.error = true;
    note("ERROR: scale mismatch (baseline quick=" +
         std::string(baseline.quick ? "true" : "false") + ", current quick=" +
         std::string(current.quick ? "true" : "false") + ")");
    return result;
  }

  // Verdicts: every claim that passed in the baseline must still pass.
  for (const auto& base_v : baseline.verdicts) {
    if (!base_v.pass) {
      continue;  // a baseline failure cannot regress further
    }
    const BenchVerdict* cur_v = find_verdict(current.verdicts, base_v.name);
    if (cur_v == nullptr) {
      flag("verdict '" + base_v.name + "' missing from current report");
    } else if (!cur_v->pass) {
      flag("verdict '" + base_v.name + "' flipped pass -> fail (" +
           cur_v->detail + ")");
    }
  }

  // Counters: relative difference in either direction beyond tolerance.
  // A drifting event count means the workload changed, not just its speed.
  if (!options.skip_counters) {
    for (const auto& base_c : baseline.metrics.counters) {
      const obs::CounterSnapshot* cur_c =
          find_counter(current.metrics, base_c.name);
      if (cur_c == nullptr) {
        flag("counter '" + base_c.name + "' missing from current report");
        continue;
      }
      const double old_v = static_cast<double>(base_c.value);
      const double new_v = static_cast<double>(cur_c->value);
      const double rel = std::abs(new_v - old_v) / std::max(old_v, 1.0);
      const double tol =
          tolerance_for(options, base_c.name, options.counter_tol);
      if (rel > tol) {
        flag("counter '" + base_c.name + "': " + fmt_double(old_v) + " -> " +
             fmt_double(new_v) + " (rel diff " + fmt_double(rel) +
             " > tol " + fmt_double(tol) + ")");
      }
    }
    // A counter the baseline never saw would otherwise go ungated: the
    // workload started counting something new, so the baseline is stale.
    for (const auto& cur_c : current.metrics.counters) {
      if (find_counter(baseline.metrics, cur_c.name) == nullptr) {
        flag("counter '" + cur_c.name + "' missing from baseline");
      }
    }
  }

  // Latency: p50/p95 growth beyond the relative budget plus absolute
  // slack. p99 and max are reported but not gated (too noisy at bench
  // iteration counts).
  if (!options.skip_latency) {
    const auto check_latency = [&](std::string_view metric, double old_us,
                                   double new_us) {
      const double tol = tolerance_for(options, metric, options.latency_tol);
      const double budget = old_us * (1.0 + tol) + options.latency_slack_us;
      if (new_us > budget) {
        flag(std::string(metric) + ": " + fmt_double(old_us) + "us -> " +
             fmt_double(new_us) + "us (budget " + fmt_double(budget) + "us)");
      }
    };
    for (const auto& base_h : baseline.metrics.histograms) {
      const obs::HistogramSnapshot* cur_h =
          find_histogram(current.metrics, base_h.name);
      if (cur_h == nullptr) {
        flag("histogram '" + base_h.name + "' missing from current report");
        continue;
      }
      check_latency(base_h.name + ".p50", base_h.p50_us, cur_h->p50_us);
      check_latency(base_h.name + ".p95", base_h.p95_us, cur_h->p95_us);
    }
    const double wall_tol =
        tolerance_for(options, "wall_s", options.latency_tol);
    const double wall_budget = baseline.wall_s * (1.0 + wall_tol) +
                               options.latency_slack_us * 1e-6;
    if (current.wall_s > wall_budget) {
      flag("wall_s: " + fmt_double(baseline.wall_s) + "s -> " +
           fmt_double(current.wall_s) + "s (budget " + fmt_double(wall_budget) +
           "s)");
    }
  }

  if (!result.regression) {
    note("OK: " + std::to_string(baseline.metrics.counters.size()) +
         " counters, " + std::to_string(baseline.metrics.histograms.size()) +
         " histograms, " + std::to_string(baseline.verdicts.size()) +
         " verdicts within tolerance");
  }
  return result;
}

}  // namespace mandipass::common
