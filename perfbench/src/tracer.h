// Layer-boundary tracing for the benchmark's traced runs.
//
// Every call the benchmark makes into a layer is wrapped in a Scope. A
// Scope always measures its own wall time (untraced runs use that for
// their timings too); while the Tracer is armed it additionally opens an
// obs::Span, so the call shows up in the process trace next to the spans
// the program records itself, and keeps a record with its parent so the
// benchmark can print a self-time table (span time minus child spans)
// without re-parsing the trace.
//
// The tracer is single-threaded: scopes nest on the calling thread. Work
// another thread did on a span's behalf (the server's queue, engine and
// render phases of a served request) is attached with add_child().
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

class Tracer {
 public:
  explicit Tracer(bool armed) : armed_(armed) {}

  bool armed() const { return armed_; }

  class Scope {
   public:
    Scope(Tracer& tracer, const char* name);
    ~Scope() { end(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    // Closes the scope (idempotent) and returns its duration [s].
    double end();

   private:
    Tracer& tracer_;
    const char* name_;
    double t0_ = 0.0;
    double dur_ = -1.0;
    int index_ = -1;
    std::optional<swsim::obs::Span> span_;
  };

  // Records a phase of `dur_s` seconds as a child of the innermost open
  // scope (no-op when disarmed or nothing is open).
  void add_child(const std::string& name, double dur_s);

  // One line per span name: count, total, children, self (all seconds).
  std::string self_time_table() const;

 private:
  struct Record {
    std::string name;
    double dur_s = 0.0;
    double child_s = 0.0;
  };

  bool armed_;
  std::vector<Record> records_;
  std::vector<int> open_;  // indices of open scopes, innermost last
};

}  // namespace perfbench
