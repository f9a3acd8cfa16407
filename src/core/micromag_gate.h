// Micromagnetic-backend triangle gate: the same FanoutGate interface as the
// analytical gates, but every evaluation is a full LLG simulation of the
// rasterized device — our equivalent of the paper's MuMax3 validation
// (Fig. 5, Tables I/II).
//
// The device is the same triangle layout at reduced scale (dimension rules
// in units of lambda preserved; see DESIGN.md) so a full run is CPU
// feasible: the film is discretized, antennas drive the input regions with
// phase 0 or pi, the wave propagates and interferes, and each detector
// probe's lock-in demodulator reads amplitude and phase at the drive
// frequency from the windows after settle_time(). Phase reference and
// normalization amplitude come from a calibration run with all inputs at
// logic 0.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/gate.h"
#include "geom/gate_layout.h"
#include "geom/roughness.h"
#include "mag/simulation.h"
#include "math/field.h"
#include "wavenet/dispersion.h"

namespace swsim::core {

struct MicromagGateConfig {
  geom::TriangleGateParams params =
      geom::TriangleGateParams::reduced_maj3(swsim::math::nm(50),
                                             swsim::math::nm(20));
  swsim::mag::Material material = swsim::mag::Material::fecob();
  double film_thickness = swsim::math::nm(1);
  double cell_size = swsim::math::nm(4);       // in-plane discretization
  double drive_amplitude = 4.0e3;              // antenna field [A/m]
  double antenna_extent_factor = 0.25;         // antenna length in lambda
  // Total simulated time; must hold one whole demodulator window after the
  // settle time (the constructor throws otherwise). <= 0 chooses
  // automatically from the group velocity and the longest path.
  double duration = 0.0;
  // RK4 step ceiling. Every solve steps at min(dt, 0.6 x the RK4
  // stability bound of this mesh, mag/stability.h): 0.5 ps on the default
  // 4 nm cells (bound 0.948 ps), 0.143 ps on 2 nm cells (bound 0.2385 ps).
  double dt = swsim::math::ps(0.5);
  double temperature = 0.0;                    // K; > 0 adds thermal noise
  std::uint64_t thermal_seed = 7;
  std::optional<geom::RoughnessParams> roughness;  // edge-roughness injection
  double margin = swsim::math::nm(20);         // vacuum margin around device
  // Absorbing boundary layers: waveguide tails appended behind every
  // antenna and beyond every detector, with Gilbert damping ramped
  // quadratically from the material value to absorber_alpha. They suppress
  // end reflections so the device operates on travelling waves (the same
  // technique device-scale MuMax3 studies use).
  double absorber_wavelengths = 2.0;  // tail length in units of lambda
  double absorber_alpha = 0.5;        // damping at the tail end
  // Numerical health policy for every LLG solve this gate runs: scan
  // cadence, divergence thresholds, and the step-halving retry budget
  // (see robust/watchdog.h). Part of the cache key: a recovered solve can
  // legitimately differ bit-for-bit from an unguarded one.
  swsim::robust::WatchdogConfig watchdog;
  // Convergence policy for the detector envelopes (4-period demodulator
  // windows). min_time <= 0 is replaced by the settle time, so a port the
  // wave has not reached cannot count as decided. Without early_stop the
  // policy only labels telemetry: output is unchanged.
  swsim::obs::ConvergencePolicy convergence;
  // Terminate each LLG solve once both detector envelopes have settled.
  // The readout then averages fewer settled windows than a full-length
  // solve: values agree within the convergence tolerance, not to the bit,
  // and detected logic must not change. Off by default.
  bool early_stop = false;
};

// The calibration run's distilled output: the all-zero-input reference
// that normalizes amplitudes and anchors phase detection. Deterministic
// for a given MicromagGateConfig, so it can be computed once and injected
// into sibling gate instances (the engine's parallel truth-table path runs
// one calibration job that every per-row evaluation job depends on).
struct MicromagCalibration {
  double ref_amplitude = 0.0;
  double ref_phase_o1 = 0.0;
  double ref_phase_o2 = 0.0;
};

struct MicromagEvaluation {
  FanoutOutputs outputs;
  double o1_amplitude = 0.0;  // settled-window lock-in amplitude (m_x)
  double o2_amplitude = 0.0;
  double o1_phase = 0.0;      // settled-window lock-in phase [rad]
  double o2_phase = 0.0;
  double frequency = 0.0;     // drive frequency used [Hz]
  // Final m_x map for Fig. 5-style snapshot rendering.
  swsim::math::ScalarField snapshot_mx;
  swsim::math::Mask body;
  // Detector time series as recorded (for --probe-out / offline spectra).
  struct ProbeSeries {
    std::string name;
    std::vector<double> t, mx, my, mz;
  };
  std::vector<ProbeSeries> probe_series;
  // Integration steps skipped by early stop (0 when disabled or the solve
  // ran to full duration).
  std::uint64_t saved_steps = 0;
};

class MicromagTriangleGate final : public FanoutGate {
 public:
  explicit MicromagTriangleGate(const MicromagGateConfig& config);

  std::string name() const override;
  std::size_t num_inputs() const override {
    return config_.params.has_third_input ? 3 : 2;
  }
  FanoutOutputs evaluate(const std::vector<bool>& inputs) override;
  bool reference(const std::vector<bool>& inputs) const override;
  int excitation_cells() const override {
    return static_cast<int>(num_inputs());
  }

  // Full evaluation with raw observables and the snapshot field.
  MicromagEvaluation evaluate_full(const std::vector<bool>& inputs);

  // Runs the calibration simulation now (evaluate() otherwise runs it
  // lazily on first use) and returns the result; idempotent.
  MicromagCalibration calibrate();
  // The calibration if one has been run or injected.
  std::optional<MicromagCalibration> calibration() const { return calib_; }
  // Injects a calibration computed by another instance with the SAME
  // config (same content hash); skips this instance's calibration run.
  void set_calibration(const MicromagCalibration& c);

  // Polled by every LLG solve; a fired token aborts evaluate() with
  // robust::SolveError(kCancelled).
  void set_cancel_token(const swsim::robust::CancelToken& token) override {
    cancel_token_ = token;
  }

  double drive_frequency() const { return frequency_; }
  const swsim::math::Grid& grid() const { return grid_; }
  const swsim::math::Mask& body_mask() const { return body_; }
  const geom::TriangleGateLayout& layout() const { return layout_; }
  double simulated_duration() const { return duration_; }
  // The RK4 step every solve of this gate takes: config.dt, capped at
  // 0.6 of the stepper's stability bound on this mesh.
  double dt() const { return dt_; }
  // Wave transit time to the farthest output plus 8 drive periods: the
  // readout averages the demodulator windows starting at or after it.
  double settle_time() const { return settle_time_; }

 private:
  // Runs one simulation for the given input logic values; fills raw
  // amplitudes/phases and the snapshot.
  MicromagEvaluation run(const std::vector<bool>& inputs);
  // The system and field terms one solve integrates, without stepper or
  // probes: what run() solves, and what the stability bound is read from.
  std::unique_ptr<swsim::mag::Simulation> build(
      const std::vector<bool>& inputs) const;
  // A port's antenna or detector patch: antenna_extent_factor lambda
  // along the guide, one waveguide width across, clipped to the body.
  swsim::math::Mask port_region(geom::Port port, const std::string& what) const;

  MicromagGateConfig config_;
  geom::TriangleGateLayout layout_;
  wavenet::Dispersion dispersion_;
  double frequency_ = 0.0;
  double duration_ = 0.0;
  double dt_ = 0.0;           // see dt()
  double settle_time_ = 0.0;  // see settle_time()
  swsim::math::Grid grid_;
  swsim::math::Mask body_;
  swsim::math::ScalarField alpha_;          // per-cell damping (absorbers)
  double origin_x_ = 0.0, origin_y_ = 0.0;  // layout -> grid offset

  struct Tail {
    swsim::math::Vec3 start;  // layout coordinates
    swsim::math::Vec3 dir;    // outward unit vector
  };
  std::vector<Tail> tails_;

  std::optional<swsim::robust::CancelToken> cancel_token_;
  std::optional<MicromagCalibration> calib_;
};

}  // namespace swsim::core
