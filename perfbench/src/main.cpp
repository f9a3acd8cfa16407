// perfbench_workload: runs one benchmark workload in this process and
// prints its metrics.
//
//   perfbench_workload --workload <llg_maj3|llg_thermal_xor|serve_wavenet_mix>
//                      --seed <n> --seconds <s> --trace <0|1>
//                      [--trace-out <chrome.json>]
//
// Human-readable lines come first; the last line is one JSON object with
// the verdict (correct / attempted / failed), the output digest, and the
// end-to-end, per-layer and informational metric maps. perfbench/run.py
// builds this binary, runs it, and publishes the map the run's trace mode
// asks for.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>

#include "common.h"
#include "mag/kernels/runtime.h"
#include "obs/trace.h"

namespace {

using perfbench::Metric;
using perfbench::Options;
using perfbench::Report;

// Every per-layer metric, in publication order. A workload that does not
// touch a layer reports 0 for it (e.g. the serve phases on an LLG run).
const Metric kPerLayer[] = {
    {"core.gate_build_s", 0, "s"},       {"core.calibrate_s", 0, "s"},
    {"core.row_s_p50", 0, "s"},          {"mag.grid_cells", 0, "count"},
    {"mag.active_cells", 0, "count"},    {"mag.steps", 0, "count"},
    {"mag.step_us", 0, "us"},            {"kernels.eval_us", 0, "us"},
    {"kernels.stage_us", 0, "us"},       {"kernels.convert_us", 0, "us"},
    {"kernels.renorm_us", 0, "us"},      {"kernels.attributed_frac", 0, "frac"},
    {"mag.ref_field_us", 0, "us"},       {"mag.thermal_us", 0, "us"},
    {"math.lockin_us", 0, "us"},         {"serve.queue_s_p50", 0, "s"},
    {"serve.engine_s_p50", 0, "s"},      {"serve.render_s_p50", 0, "s"},
    {"serve.latency_p99_s", 0, "s"},     {"engine.cache_hit_ratio", 0, "frac"},
    {"engine.yield_trial_us", 0, "us"},  {"wavenet.row_us", 0, "us"},
    {"serve.codec_us", 0, "us"},         {"obs.trace_overhead_frac", 0, "frac"},
    {"host.sentinel_s", 0, "s"},
};

// The reported per-layer values in kPerLayer order, zero where absent.
std::vector<Metric> complete_per_layer(const std::vector<Metric>& got) {
  std::vector<Metric> out;
  for (const Metric& want : kPerLayer) {
    Metric m = want;
    for (const Metric& g : got) {
      if (g.name == want.name) m.value = g.value;
    }
    out.push_back(m);
  }
  return out;
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench_workload: %s\nusage: perfbench_workload --workload "
               "<name> --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-out <path>]\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string val = argv[++i];
    try {
      if (key == "--workload") {
        o.workload = val;
        have_workload = true;
      } else if (key == "--seed") {
        o.seed = std::stoull(val);
      } else if (key == "--seconds") {
        o.seconds = std::stod(val);
      } else if (key == "--trace") {
        if (val != "0" && val != "1") usage("--trace takes 0 or 1");
        o.trace = val == "1";
      } else if (key == "--trace-out") {
        o.trace_out = val;
      } else {
        usage("unknown flag " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + val);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(o.seconds > 0.0)) usage("--seconds must be > 0");
  return o;
}

std::string json_metrics(const std::vector<Metric>& ms) {
  std::string out = "{";
  char buf[64];
  for (std::size_t i = 0; i < ms.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.17g", ms[i].value);
    out += (i ? ", \"" : "\"") + ms[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return out + "}";
}

void print_table(const char* title, const std::vector<Metric>& ms) {
  std::printf("%s\n", title);
  for (const Metric& m : ms) {
    std::printf("  %-28s %18.9g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = parse(argc, argv);
  // Every solve in this process stays on one thread; the serve workload
  // sizes its own engine pool.
  swsim::mag::kernels::set_cell_jobs(1);

  Report report;
  const double sentinel_start = perfbench::sentinel_seconds();
  try {
    if (opts.workload == "llg_maj3" || opts.workload == "llg_thermal_xor") {
      perfbench::run_llg(opts, report);
    } else if (opts.workload == "serve_wavenet_mix") {
      perfbench::run_serve(opts, report);
    } else {
      usage("unknown workload " + opts.workload);
    }
  } catch (const std::exception& e) {
    report.fail(std::string("workload threw: ") + e.what());
  }
  const double sentinel_end = perfbench::sentinel_seconds();

  report.info.push_back({"host.sentinel_start_s", sentinel_start, "s"});
  report.info.push_back({"host.sentinel_end_s", sentinel_end, "s"});
  report.per_layer.push_back(
      {"host.sentinel_s", 0.5 * (sentinel_start + sentinel_end), "s"});
  if (report.attempted == 0) report.fail("no operation was attempted");
  if (opts.trace) report.per_layer = complete_per_layer(report.per_layer);

  if (opts.trace && !opts.trace_out.empty()) {
    std::string error;
    if (!swsim::obs::TraceSession::global().write_chrome_json(opts.trace_out,
                                                              &error)) {
      report.fail("trace write failed: " + error);
    }
  }

  std::printf("workload %s seed %llu trace %d\n", opts.workload.c_str(),
              static_cast<unsigned long long>(opts.seed), opts.trace ? 1 : 0);
  print_table("end-to-end:", report.end_to_end);
  print_table("per-layer:", report.per_layer);
  print_table("info:", report.info);
  std::printf("attempted %llu failed %llu fail_frac %.6f digest %s\n",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              report.attempted
                  ? static_cast<double>(report.failed) /
                        static_cast<double>(report.attempted)
                  : 0.0,
              report.digest.c_str());
  for (const std::string& p : report.problems) {
    std::printf("PROBLEM: %s\n", p.c_str());
  }
  std::printf(
      "{\"workload\": \"%s\", \"correct\": %s, \"attempted\": %llu, "
      "\"failed\": %llu, \"digest\": \"%s\", \"end_to_end\": %s, "
      "\"per_layer\": %s, \"info\": %s}\n",
      opts.workload.c_str(), report.correct ? "true" : "false",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed), report.digest.c_str(),
      json_metrics(report.end_to_end).c_str(),
      json_metrics(report.per_layer).c_str(),
      json_metrics(report.info).c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
