#include "obs/trace.h"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/clock.h"
#include "obs/json.h"

namespace swsim::obs {

namespace detail {

std::atomic<bool> g_trace_armed{false};

thread_local std::uint64_t g_current_flow = 0;

ThreadBuffer& this_thread_buffer() {
  // The pointer lives as long as the thread; the buffer itself is owned by
  // the session and outlives the thread, so late events (and the exporter)
  // never touch freed memory.
  thread_local ThreadBuffer* buf = &TraceSession::global().register_thread();
  return *buf;
}

}  // namespace detail

TraceSession& TraceSession::global() {
  // Leaky singleton: pool worker threads may record spans during static
  // destruction of the main thread's objects; never destroy the session.
  static TraceSession* session = new TraceSession();
  return *session;
}

detail::ThreadBuffer& TraceSession::register_thread() {
  std::lock_guard<std::mutex> lock(mutex_);
  buffers_.push_back(std::make_unique<detail::ThreadBuffer>());
  buffers_.back()->tid = next_tid_.fetch_add(1, std::memory_order_relaxed);
  return *buffers_.back();
}

void TraceSession::start() {
  detail::g_trace_armed.store(true, std::memory_order_relaxed);
}

void TraceSession::stop() {
  detail::g_trace_armed.store(false, std::memory_order_relaxed);
}

std::size_t TraceSession::event_count() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = 0;
  for (const auto& b : buffers_) {
    std::lock_guard<std::mutex> bl(b->mutex);
    n += b->events.size();
  }
  return n;
}

void TraceSession::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& b : buffers_) {
    std::lock_guard<std::mutex> bl(b->mutex);
    b->events.clear();
  }
}

namespace {

void append_hex(std::ostringstream& os, std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%llx",
                static_cast<unsigned long long>(v));
  os << buf;
}

}  // namespace

std::string TraceSession::chrome_json() {
  std::ostringstream os;
  // now_us() grows past 1e6 within a second of process start; the default
  // 6-significant-digit precision would quantize timestamps. 15 digits
  // keeps sub-microsecond resolution for runs up to ~28 years.
  os.precision(15);
  // Epoch microseconds at trace timestamp 0: the key `swsim trace merge`
  // uses to rebase traces from different processes onto one timeline.
  const auto anchor = static_cast<long long>(
      static_cast<double>(wall_now_us()) - now_us());
  os << "{\"traceEvents\": [\n";
  std::lock_guard<std::mutex> lock(mutex_);
  bool first = true;
  const auto comma = [&] {
    if (!first) os << ",\n";
    first = false;
  };
  for (const auto& b : buffers_) {
    std::lock_guard<std::mutex> bl(b->mutex);
    if (!b->thread_name.empty()) {
      comma();
      os << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": "
         << b->tid << ", \"args\": {\"name\": \""
         << escape_json(b->thread_name) << "\"}}";
    }
    for (const auto& e : b->events) {
      comma();
      os << "{\"name\": \"" << escape_json(e.name) << "\", \"cat\": \""
         << escape_json(e.cat) << "\", \"ph\": \"" << e.ph
         << "\", \"ts\": " << e.ts_us;
      if (e.ph == 'X') {
        os << ", \"dur\": " << e.dur_us;
      } else {
        // Flow event: the shared arrow id, as a hex string so 64-bit ids
        // survive JSON double precision.
        os << ", \"id\": \"";
        append_hex(os, e.flow_id);
        os << "\"";
        if (e.ph == 'f') os << ", \"bp\": \"e\"";
      }
      os << ", \"pid\": 1, \"tid\": " << b->tid;
      if (!e.args.empty()) os << ", \"args\": " << e.args;
      os << "}";
    }
  }
  os << "\n], \"otherData\": {\"wall_anchor_us\": " << anchor << "}}\n";
  return os.str();
}

bool TraceSession::write_chrome_json(const std::string& path,
                                     std::string* error) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    if (error) *error = "cannot open '" + path + "' for writing";
    return false;
  }
  out << chrome_json();
  if (!out) {
    if (error) *error = "write to '" + path + "' failed";
    return false;
  }
  return true;
}

void Span::begin(const char* name, const char* cat,
                 const std::string* args_json) {
  armed_ = true;
  name_ = name;
  cat_ = cat;
  if (args_json) args_ = *args_json;
  t0_us_ = now_us();
}

void Span::end() {
  const double t1 = now_us();
  detail::ThreadBuffer& buf = detail::this_thread_buffer();
  std::lock_guard<std::mutex> lock(buf.mutex);
  buf.events.push_back({std::move(name_), cat_, t0_us_, t1 - t0_us_, 'X', 0,
                        std::move(args_)});
}

void record_complete(const std::string& name, const char* cat, double ts_us) {
  if (!tracing()) return;
  const double t1 = now_us();
  detail::ThreadBuffer& buf = detail::this_thread_buffer();
  std::lock_guard<std::mutex> lock(buf.mutex);
  buf.events.push_back({name, cat, ts_us, t1 - ts_us, 'X', 0, {}});
}

void record_flow(const std::string& name, const char* cat, std::uint64_t id,
                 char phase) {
  if (!tracing() || id == 0) return;
  const double ts = now_us();
  detail::ThreadBuffer& buf = detail::this_thread_buffer();
  std::lock_guard<std::mutex> lock(buf.mutex);
  buf.events.push_back({name, cat, ts, 0.0, phase, id, {}});
}

void set_thread_name(const std::string& name) {
  detail::ThreadBuffer& buf = detail::this_thread_buffer();
  std::lock_guard<std::mutex> lock(buf.mutex);
  buf.thread_name = name;
}

}  // namespace swsim::obs
