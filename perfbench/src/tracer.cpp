#include "tracer.h"

#include <algorithm>
#include <cstdio>
#include <map>

#include "common.h"

namespace perfbench {

Tracer::Scope::Scope(Tracer& tracer, const char* name)
    : tracer_(tracer), name_(name) {
  if (tracer_.armed_) {
    index_ = static_cast<int>(tracer_.records_.size());
    tracer_.records_.push_back(Record{name, 0.0, 0.0});
    tracer_.open_.push_back(index_);
    span_.emplace(name, "perfbench");
  }
  t0_ = now_s();
}

double Tracer::Scope::end() {
  if (dur_ >= 0.0) return dur_;
  dur_ = now_s() - t0_;
  if (index_ >= 0) {
    span_.reset();
    tracer_.records_[static_cast<std::size_t>(index_)].dur_s = dur_;
    tracer_.open_.pop_back();
    if (!tracer_.open_.empty()) {
      tracer_.records_[static_cast<std::size_t>(tracer_.open_.back())]
          .child_s += dur_;
    }
  }
  return dur_;
}

void Tracer::add_child(const std::string& name, double dur_s) {
  if (!armed_ || open_.empty()) return;
  records_[static_cast<std::size_t>(open_.back())].child_s += dur_s;
  records_.push_back(Record{name, dur_s, 0.0});
}

std::string Tracer::self_time_table() const {
  struct Row {
    std::size_t count = 0;
    double total = 0.0, child = 0.0;
  };
  std::map<std::string, Row> rows;
  for (const Record& r : records_) {
    Row& row = rows[r.name];
    ++row.count;
    row.total += r.dur_s;
    row.child += r.child_s;
  }
  std::vector<std::pair<std::string, Row>> sorted(rows.begin(), rows.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return a.second.total - a.second.child > b.second.total - b.second.child;
  });
  std::string out =
      "span                       count     total_s  children_s      self_s\n";
  char line[160];
  for (const auto& [name, row] : sorted) {
    std::snprintf(line, sizeof line, "%-24s %7zu %11.6f %11.6f %11.6f\n",
                  name.c_str(), row.count, row.total, row.child,
                  row.total - row.child);
    out += line;
  }
  return out;
}

}  // namespace perfbench
