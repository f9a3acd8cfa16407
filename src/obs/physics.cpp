#include "obs/physics.h"

#include <chrono>
#include <cmath>
#include <stdexcept>

#include "obs/metrics.h"

namespace swsim::obs {

namespace {

// Local copy of math::phase_distance: obs must not depend on the math
// library (mag sits above both and links them together).
double phase_distance(double a, double b) {
  constexpr double kPi = 3.14159265358979323846;
  constexpr double kTwoPi = 2.0 * kPi;
  double w = std::fmod(a - b + kPi, kTwoPi);
  if (w <= 0.0) w += kTwoPi;
  return std::fabs(w - kPi);
}

}  // namespace

ConvergenceTracker::ConvergenceTracker(const ConvergencePolicy& policy)
    : policy_(policy) {
  if (policy_.windows < 1) {
    throw std::invalid_argument(
        "ConvergenceTracker: policy.windows must be >= 1");
  }
  if (!(policy_.rel_tolerance >= 0.0) || !(policy_.abs_floor >= 0.0) ||
      !(policy_.phase_tolerance >= 0.0)) {
    throw std::invalid_argument(
        "ConvergenceTracker: tolerances must be non-negative");
  }
}

bool ConvergenceTracker::add_window(double t, double amplitude, double phase) {
  ++windows_seen_;
  if (converged_) return false;
  if (have_last_) {
    const double tol = std::max(policy_.abs_floor,
                                policy_.rel_tolerance * std::fabs(amplitude));
    const bool stable =
        std::fabs(amplitude - last_amplitude_) <= tol &&
        phase_distance(phase, last_phase_) <= policy_.phase_tolerance;
    streak_ = stable ? streak_ + 1 : 0;
  }
  have_last_ = true;
  last_amplitude_ = amplitude;
  last_phase_ = phase;
  if (streak_ >= policy_.windows && t >= policy_.min_time) {
    converged_ = true;
    converged_at_ = t;
    return true;
  }
  return false;
}

void ConvergenceTracker::clear() {
  windows_seen_ = 0;
  streak_ = 0;
  have_last_ = false;
  last_amplitude_ = 0.0;
  last_phase_ = 0.0;
  converged_ = false;
  converged_at_ = 0.0;
}

ConvergenceTracker::Checkpoint ConvergenceTracker::checkpoint() const {
  return {windows_seen_, streak_,    have_last_, last_amplitude_,
          last_phase_,   converged_, converged_at_};
}

void ConvergenceTracker::restore(const Checkpoint& cp) {
  windows_seen_ = cp.windows_seen;
  streak_ = cp.streak;
  have_last_ = cp.have_last;
  last_amplitude_ = cp.last_amplitude;
  last_phase_ = cp.last_phase;
  converged_ = cp.converged;
  converged_at_ = cp.converged_at;
}

PhysicsRegistry& PhysicsRegistry::global() {
  // Leaky singleton, like MetricsRegistry: safe to touch during static
  // destruction of other objects.
  static PhysicsRegistry* registry = new PhysicsRegistry();
  return *registry;
}

void PhysicsRegistry::record_window(const std::string& probe, double amplitude,
                                    double phase) {
  if (!metrics_armed()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  auto& stats = state_.probes[probe];
  ++stats.windows;
  stats.amplitude = amplitude;
  stats.phase = phase;
}

void PhysicsRegistry::record_converged(const std::string& probe, double t) {
  if (!metrics_armed()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  state_.probes[probe].converged_at = t;
}

void PhysicsRegistry::record_energy(double total_j, double exchange_j) {
  if (!metrics_armed()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  ++state_.energy_samples;
  state_.total_energy_j = total_j;
  state_.exchange_energy_j = exchange_j;
}

void PhysicsRegistry::record_early_stop(std::uint64_t saved_steps) {
  if (!metrics_armed()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  state_.early_stop_saved_steps += saved_steps;
}

void PhysicsRegistry::retract(const Tally& tally) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [probe, windows] : tally.windows) {
    state_.probes[probe].windows -= windows;
  }
  state_.energy_samples -= tally.energy_samples;
}

PhysicsRegistry::Snapshot PhysicsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return state_;
}

void PhysicsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  state_ = Snapshot{};
}

ProbeHub::Subscription::Subscription(ProbeHub* hub, std::size_t capacity)
    : hub_(hub), capacity_(capacity == 0 ? 1 : capacity) {}

ProbeHub::Subscription::~Subscription() { hub_->unsubscribe(this); }

void ProbeHub::Subscription::push(const Frame& frame) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (queue_.size() >= capacity_) {
      queue_.pop_front();
      dropped_.fetch_add(1, std::memory_order_relaxed);
    }
    queue_.push_back(frame);
  }
  cv_.notify_one();
}

bool ProbeHub::Subscription::next(Frame* out, double wait_s) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (queue_.empty()) {
    if (wait_s <= 0.0) return false;
    cv_.wait_for(lock, std::chrono::duration<double>(wait_s),
                 [this] { return !queue_.empty(); });
    if (queue_.empty()) return false;
  }
  *out = queue_.front();
  queue_.pop_front();
  return true;
}

ProbeHub& ProbeHub::global() {
  static ProbeHub* hub = new ProbeHub();
  return *hub;
}

std::shared_ptr<ProbeHub::Subscription> ProbeHub::subscribe(
    std::size_t capacity) {
  std::shared_ptr<Subscription> sub(new Subscription(this, capacity));
  {
    std::lock_guard<std::mutex> lock(mutex_);
    subscribers_.push_back(sub.get());
  }
  subscriber_count_.fetch_add(1, std::memory_order_relaxed);
  return sub;
}

void ProbeHub::publish(const Frame& frame) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (Subscription* sub : subscribers_) sub->push(frame);
}

void ProbeHub::unsubscribe(Subscription* sub) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = subscribers_.begin(); it != subscribers_.end(); ++it) {
    if (*it == sub) {
      subscribers_.erase(it);
      subscriber_count_.fetch_sub(1, std::memory_order_relaxed);
      break;
    }
  }
}

}  // namespace swsim::obs
