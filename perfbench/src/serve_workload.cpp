// serve_wavenet_mix: an in-process serve::Server on a Unix socket under
// the build directory, driven by serve::run_loadgen in a closed loop with
// two connections and a seeded truthtable:yield:hello mix over the
// analytical gates. The engine pool has two threads; no LLG solve runs.
//
// Untraced run: set-up (daemon start to the first answered request plus a
// cold pass over the mix's truth-table configs) is repeated kSetups times;
// then loadgen runs the mix for --seconds and a truth-table-only loop for
// one second, and served truth tables are checked and digested.
//
// Traced run: loadgen in untraced and traced quarters (the untraced ones
// give the overhead baseline and the p99), then traced client exchanges
// whose response timing blocks give the server's queue / engine / render
// phases, plus codec and wavenet probes.
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.h"
#include "core/triangle_gate.h"
#include "core/logic.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "serve/client.h"
#include "serve/codec.h"
#include "serve/loadgen.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "tracer.h"

namespace perfbench {

namespace {

namespace serve = swsim::serve;

constexpr int kSetups = 7;
constexpr int kTruthTableChecks = 20;
constexpr int kTracedExchanges = 300;
constexpr double kWeightTruthTable = 0.6, kWeightYield = 0.2, kWeightHello = 0.2;
constexpr std::size_t kYieldTrials = 40;
const char* const kGates[] = {"maj", "xor"};

serve::ServerConfig server_config(const std::string& socket_path) {
  serve::ServerConfig cfg;
  cfg.socket_path = socket_path;
  cfg.dispatchers = 2;
  cfg.engine.jobs = 2;
  cfg.queue_capacity = 256;
  return cfg;
}

serve::Request truthtable_request(const char* gate, std::uint64_t id) {
  serve::Request req;
  req.type = serve::RequestType::kTruthTable;
  req.client = "perfbench";
  req.id = id;
  req.gate.kind = gate;
  return req;
}

// A started daemon that always shuts down, even when a check throws.
class Daemon {
 public:
  explicit Daemon(const std::string& socket_path)
      : server_(server_config(socket_path)) {
    const swsim::robust::Status st = server_.start();
    if (!st.is_ok()) throw std::runtime_error("server start: " + st.str());
  }
  ~Daemon() { server_.shutdown(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

 private:
  serve::Server server_;
};

void connect(serve::Client& client, const std::string& socket_path) {
  const swsim::robust::Status st = client.connect_unix(socket_path);
  if (!st.is_ok()) throw std::runtime_error("connect: " + st.str());
}

// One exchange that must succeed with an OK status.
serve::Response must_call(serve::Client& client, const serve::Request& req) {
  serve::Response resp;
  const swsim::robust::Status st = client.call(req, &resp, 30.0);
  if (!st.is_ok()) throw std::runtime_error("exchange: " + st.str());
  if (!resp.status.is_ok()) {
    throw std::runtime_error("request " + serve::to_string(req.type) +
                             " answered " + resp.status.str());
  }
  return resp;
}

// Daemon start to the first answered request, plus the cold pass.
double set_up_once(const std::string& socket_path, Tracer& tr) {
  Tracer::Scope total(tr, "serve.setup");
  Daemon daemon(socket_path);
  serve::Client client;
  connect(client, socket_path);
  serve::Request hello;
  hello.type = serve::RequestType::kHello;
  must_call(client, hello);
  std::uint64_t id = 0;
  for (const char* gate : kGates) must_call(client, truthtable_request(gate, ++id));
  return total.end();
}

serve::LoadgenConfig loadgen_config(const std::string& socket_path,
                                    std::uint64_t seed, double seconds) {
  serve::LoadgenConfig lg;
  lg.socket_path = socket_path;
  lg.duration_s = seconds;
  lg.concurrency = 2;
  lg.seed = seed;
  lg.weight_truthtable = kWeightTruthTable;
  lg.weight_yield = kWeightYield;
  lg.weight_hello = kWeightHello;
  lg.yield_trials = kYieldTrials;
  lg.gates = {"maj", "xor"};
  lg.call_timeout_s = 30.0;
  return lg;
}

serve::LoadgenReport run_load(const serve::LoadgenConfig& lg, Report& report) {
  serve::LoadgenReport out;
  const swsim::robust::Status st = serve::run_loadgen(lg, &out);
  if (!st.is_ok()) throw std::runtime_error("loadgen: " + st.str());
  report.attempted += out.sent;
  report.failed += out.sent - out.ok;
  if (out.hung != 0) report.fail(std::to_string(out.hung) + " hung exchanges");
  return out;
}

// Served truth tables checked byte for byte: each gate's table must be
// all-pass and identical on every call. Returns a digest of the tables.
std::uint64_t check_truthtables(serve::Client& client, Report& report) {
  std::string first[2];
  for (int i = 0; i < kTruthTableChecks; ++i) {
    const int g = i % 2;
    ++report.attempted;
    serve::Response resp;
    const swsim::robust::Status st =
        client.call(truthtable_request(kGates[g], 1000 + i), &resp, 30.0);
    if (!st.is_ok() || !resp.status.is_ok() || resp.all_pass != 1.0) {
      ++report.failed;
      report.fail(std::string("served truth table ") + kGates[g] + " failed");
    } else if (first[g].empty()) {
      first[g] = resp.text;
    } else if (resp.text != first[g]) {
      report.fail(std::string("served truth table ") + kGates[g] + " changed");
    }
  }
  return fnv1a(first[1].data(), first[1].size(),
               fnv1a(first[0].data(), first[0].size()));
}

// The loadgen's xorshift64* and draw order, for traced client exchanges.
struct Mix {
  std::uint64_t s;
  explicit Mix(std::uint64_t seed) : s(seed * 0x9e3779b97f4a7c15ull + 99) {}
  std::uint64_t next() {
    s ^= s >> 12;
    s ^= s << 25;
    s ^= s >> 27;
    return s * 0x2545f4914f6cdd1dull;
  }
  double uniform() { return static_cast<double>(next() >> 11) * (1.0 / 9007199254740992.0); }
};

struct Phases {
  std::vector<double> queue_s, engine_s, render_s, yield_trial_us;
};

Phases traced_exchanges(serve::Client& client, std::uint64_t seed, Tracer& tr,
                        Report& report) {
  Phases ph;
  Mix mix(seed);
  const double wsum = kWeightTruthTable + kWeightYield + kWeightHello;
  for (int i = 0; i < kTracedExchanges; ++i) {
    serve::Request req;
    req.client = "perfbench-traced";
    req.id = 5000 + static_cast<std::uint64_t>(i);
    req.trace_id = "perfbench";
    const double draw = mix.uniform() * wsum;
    if (draw < kWeightTruthTable) {
      req.type = serve::RequestType::kTruthTable;
      req.gate.kind = kGates[mix.next() % 2];
    } else if (draw < kWeightTruthTable + kWeightYield) {
      req.type = serve::RequestType::kYield;
      req.yield.kind = "maj";
      req.yield.trials = kYieldTrials;
    } else {
      req.type = serve::RequestType::kHello;
    }
    ++report.attempted;
    Tracer::Scope ex(tr, "serve.exchange");
    serve::Response resp;
    const swsim::robust::Status st = client.call(req, &resp, 30.0);
    if (!st.is_ok() || !resp.status.is_ok()) {
      ++report.failed;
      report.fail("traced exchange failed");
      continue;
    }
    const serve::Response::Timing& t = resp.timing;
    if (t.queue_s >= 0.0) {
      tr.add_child("serve.queue", t.queue_s);
      tr.add_child("serve.engine", t.engine_s);
      tr.add_child("serve.render", t.render_s);
      ph.queue_s.push_back(t.queue_s);
      ph.engine_s.push_back(t.engine_s);
      ph.render_s.push_back(t.render_s);
      if (req.type == serve::RequestType::kYield) {
        ph.yield_trial_us.push_back(t.engine_s * 1e6 / static_cast<double>(kYieldTrials));
        if (!(resp.yield_value >= 0.0 && resp.yield_value <= 1.0)) {
          report.fail("yield outside [0, 1]");
        }
      }
    }
  }
  return ph;
}

double cache_hit_ratio(serve::Client& client) {
  serve::Request req;
  req.type = serve::RequestType::kHealthz;
  const serve::Response resp = must_call(client, req);
  const swsim::obs::JsonValue doc = swsim::obs::parse_json(resp.payload_json);
  const swsim::obs::JsonValue* cache = doc.find("cache");
  const swsim::obs::JsonValue* hits = cache ? cache->find("hits") : nullptr;
  const swsim::obs::JsonValue* misses = cache ? cache->find("misses") : nullptr;
  if (!hits || !misses) throw std::runtime_error("healthz has no cache block");
  const double lookups = hits->number() + misses->number();
  return lookups > 0.0 ? hits->number() / lookups : 0.0;
}

// A truthtable request framed, sent over a socket pair, read and parsed.
double codec_round_trip_us(Report& report) {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    throw std::runtime_error("socketpair failed");
  }
  const serve::Request req = truthtable_request("maj", 7);
  std::string payload, error;
  const double us = per_call_us(
      [&] {
        serve::Request back;
        if (!serve::write_frame(fds[0], serve::serialize_request(req), &error) ||
            serve::read_frame(fds[1], &payload, &error) != serve::ReadResult::kFrame ||
            !serve::parse_request_text(payload, &back).is_ok() ||
            back.gate.kind != "maj") {
          report.fail("codec round trip failed: " + error);
        }
      },
      200);
  ::close(fds[0]);
  ::close(fds[1]);
  return us;
}

// One analytical (wave-network) MAJ3 row evaluation.
double wavenet_row_us(Report& report) {
  swsim::core::TriangleMajGate gate = swsim::core::TriangleMajGate::paper_device();
  const auto patterns = swsim::core::all_input_patterns(3);
  std::size_t i = 0;
  return per_call_us(
      [&] {
        const auto& bits = patterns[i++ % patterns.size()];
        const swsim::core::FanoutOutputs out = gate.evaluate(bits);
        if (out.o1.logic != gate.reference(bits)) report.fail("wavenet row wrong");
      },
      200);
}

}  // namespace

void run_serve(const Options& opts, Report& report) {
  namespace fs = std::filesystem;
  fs::create_directories(".bench_build/run");
  const std::string socket_path =
      ".bench_build/run/serve-" + std::to_string(::getpid()) + ".sock";
  Tracer untraced(false);

  std::vector<double> setup_s;
  for (int i = 0; i < (opts.trace ? 1 : kSetups); ++i) {
    setup_s.push_back(set_up_once(socket_path, untraced));
  }

  Daemon daemon(socket_path);
  serve::Client client;
  connect(client, socket_path);
  for (const char* gate : kGates) must_call(client, truthtable_request(gate, 1));

  if (!opts.trace) {
    // Loadgen in one-second windows: the OK rate is the median over the
    // windows, so a scheduling hiccup of the host costs one window, not
    // the run; latencies are pooled over all windows.
    const int windows = std::max(1, static_cast<int>(std::lround(opts.seconds)));
    std::vector<double> rates, latency;
    std::uint64_t sent = 0, completed = 0, shed = 0, transport_errors = 0;
    std::printf("loadgen windows (OK/s):");
    for (int i = 0; i < windows; ++i) {
      const serve::LoadgenReport lg = run_load(
          loadgen_config(socket_path, opts.seed * 1000 + static_cast<std::uint64_t>(i),
                         opts.seconds / windows),
          report);
      rates.push_back(static_cast<double>(lg.ok) / lg.wall_s);
      latency.insert(latency.end(), lg.latencies_s.begin(), lg.latencies_s.end());
      sent += lg.sent;
      completed += lg.completed;
      shed += lg.shed + lg.deadline_exceeded;
      transport_errors += lg.transport_errors;
      std::printf(" %.0f", rates.back());
    }
    std::printf("\n");
    // truthtable_s: the same closed loop with truth-table requests only.
    serve::LoadgenConfig tt_cfg = loadgen_config(socket_path, opts.seed, 1.0);
    tt_cfg.weight_yield = tt_cfg.weight_hello = 0.0;
    const serve::LoadgenReport tt = run_load(tt_cfg, report);
    report.digest = hex64(check_truthtables(client, report));
    report.end_to_end = {
        {"setup_s", median(setup_s), "s"},
        {"truthtable_s", tt.p50_s, "s"},
        {"throughput_per_s", median(rates), "1/s"},
        {"latency_p50_s", quantile(latency, 0.5), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"ok_frac",
         static_cast<double>(report.attempted - report.failed) /
             static_cast<double>(report.attempted),
         "frac"},
    };
    report.info = {
        {"serve.requests", static_cast<double>(sent), "count"},
        {"serve.latency_p99_s", quantile(latency, 0.99), "s"},
        {"serve.shed", static_cast<double>(shed), "count"},
        {"serve.transport_errors", static_cast<double>(transport_errors), "count"},
    };
    if (completed < 1000) report.info.push_back({"serve.p99_undersampled", 1.0, "flag"});
    return;
  }

  report.digest = hex64(check_truthtables(client, report));
  // Untraced and traced loadgen quarters in A-B-B-A order, so a linear
  // drift of the host cancels out of the tracing overhead.
  const serve::LoadgenConfig plain_cfg =
      loadgen_config(socket_path, opts.seed, opts.seconds / 4);
  serve::LoadgenConfig traced_cfg = plain_cfg;
  traced_cfg.trace_id = "perfbench-loadgen";
  Tracer tr(true);
  std::vector<serve::LoadgenReport> plain, traced;
  plain.push_back(run_load(plain_cfg, report));
  swsim::obs::TraceSession::global().start();
  for (int i = 0; i < 2; ++i) {
    Tracer::Scope s(tr, "serve.loadgen");
    traced.push_back(run_load(traced_cfg, report));
  }
  swsim::obs::TraceSession::global().stop();
  plain.push_back(run_load(plain_cfg, report));
  swsim::obs::TraceSession::global().start();
  const Phases ph = traced_exchanges(client, opts.seed, tr, report);
  double codec_us = 0.0, row_us = 0.0;
  {
    Tracer::Scope s(tr, "serve.codec");
    codec_us = codec_round_trip_us(report);
  }
  {
    Tracer::Scope s(tr, "wavenet.row");
    row_us = wavenet_row_us(report);
  }
  const double hit_ratio = cache_hit_ratio(client);
  swsim::obs::TraceSession::global().stop();

  const auto ok_rate = [](const std::vector<serve::LoadgenReport>& runs) {
    double ok = 0.0, wall = 0.0;
    for (const auto& r : runs) {
      ok += static_cast<double>(r.ok);
      wall += r.wall_s;
    }
    return ok / wall;
  };
  std::vector<double> plain_latency;
  for (const auto& r : plain) {
    plain_latency.insert(plain_latency.end(), r.latencies_s.begin(), r.latencies_s.end());
  }
  report.per_layer = {
      {"serve.queue_s_p50", median(ph.queue_s), "s"},
      {"serve.engine_s_p50", median(ph.engine_s), "s"},
      {"serve.render_s_p50", median(ph.render_s), "s"},
      {"serve.latency_p99_s", quantile(plain_latency, 0.99), "s"},
      {"engine.cache_hit_ratio", hit_ratio, "frac"},
      {"engine.yield_trial_us", median(ph.yield_trial_us), "us"},
      {"wavenet.row_us", row_us, "us"},
      {"serve.codec_us", codec_us, "us"},
      {"obs.trace_overhead_frac", ok_rate(plain) / ok_rate(traced) - 1.0, "frac"},
  };
  report.info = {
      {"serve.requests_untraced", static_cast<double>(plain_latency.size()), "count"},
  };
  std::printf("self time (traced pass):\n%s", tr.self_time_table().c_str());
}

}  // namespace perfbench
