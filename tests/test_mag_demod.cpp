// Online lock-in demodulation: the per-window math against the offline
// detector (math/lockin.h), tumbling-window bookkeeping, and the bit-exact
// checkpoint/restore contract the divergence-recovery rewind relies on.
#include "mag/demod.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "math/constants.h"
#include "math/lockin.h"

namespace swsim::mag {
namespace {

constexpr double kF0 = 2.5e9;
constexpr std::size_t kPerPeriod = 16;
constexpr double kDt = 1.0 / (kPerPeriod * kF0);

// x(t) = A cos(2 pi f0 t + p), sampled on the demodulator's grid.
std::vector<double> tone(std::size_t n, double amplitude, double phase) {
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) * kDt;
    x[i] = amplitude * std::cos(math::kTwoPi * kF0 * t + phase);
  }
  return x;
}

// A deterministic non-stationary signal (drifting tone + second harmonic)
// so checkpoint tests exercise windows whose values actually differ.
double wiggly(std::size_t i) {
  const double t = static_cast<double>(i) * kDt;
  return (1.0 + 0.01 * static_cast<double>(i)) *
             std::cos(math::kTwoPi * kF0 * t + 0.3) +
         0.2 * std::cos(2.0 * math::kTwoPi * kF0 * t);
}

TEST(LockinDemodulator, CtorValidatesArguments) {
  EXPECT_THROW(LockinDemodulator(0.0, 16), std::invalid_argument);
  EXPECT_THROW(LockinDemodulator(-1e9, 16), std::invalid_argument);
  EXPECT_THROW(LockinDemodulator(kF0, 1), std::invalid_argument);
  EXPECT_NO_THROW(LockinDemodulator(kF0, 2));
}

TEST(LockinDemodulator, PureToneReproducesAmplitudeAndPhase) {
  // A 2-period window over a pure tone: every window must report the
  // tone's amplitude and phase (cos convention, like the offline lockin).
  const double amplitude = 0.37;
  const double phase = 0.8;
  LockinDemodulator demod(kF0, 2 * kPerPeriod);
  const auto x = tone(6 * kPerPeriod, amplitude, phase);
  for (std::size_t i = 0; i < x.size(); ++i) {
    demod.add_sample(static_cast<double>(i) * kDt, x[i]);
  }
  ASSERT_EQ(demod.window_count(), 3u);
  for (std::size_t w = 0; w < 3; ++w) {
    EXPECT_NEAR(demod.amplitude()[w], amplitude, 1e-12) << "window " << w;
    EXPECT_NEAR(demod.phase()[w], phase, 1e-12) << "window " << w;
  }
}

TEST(LockinDemodulator, FirstWindowMatchesOfflineLockin) {
  // The incremental accumulation over one whole-period window must agree
  // with the offline single-bin DFT on the identical samples.
  LockinDemodulator demod(kF0, 2 * kPerPeriod);
  std::vector<double> x(2 * kPerPeriod);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = wiggly(i);
    demod.add_sample(static_cast<double>(i) * kDt, x[i]);
  }
  ASSERT_EQ(demod.window_count(), 1u);
  const auto offline = math::lockin(x, kDt, kF0, /*t0=*/0.0);
  EXPECT_NEAR(demod.amplitude()[0], offline.amplitude, 1e-12);
  EXPECT_NEAR(demod.phase()[0], offline.phase, 1e-12);
}

TEST(LockinDemodulator, WindowsTumbleOnTheExactSample) {
  LockinDemodulator demod(kF0, 4);
  std::size_t completions = 0;
  for (std::size_t i = 0; i < 10; ++i) {
    const double t = static_cast<double>(i) * kDt;
    const bool completed = demod.add_sample(t, wiggly(i));
    EXPECT_EQ(completed, (i + 1) % 4 == 0) << "sample " << i;
    if (completed) {
      ++completions;
      // times() holds the timestamp of each window's last sample.
      EXPECT_DOUBLE_EQ(demod.times().back(), t);
    }
  }
  EXPECT_EQ(completions, 2u);
  EXPECT_EQ(demod.window_count(), 2u);
}

TEST(LockinDemodulator, ClearDropsEverything) {
  LockinDemodulator demod(kF0, 4);
  for (std::size_t i = 0; i < 6; ++i) {
    demod.add_sample(static_cast<double>(i) * kDt, wiggly(i));
  }
  demod.clear();
  EXPECT_EQ(demod.window_count(), 0u);
  const auto cp = demod.checkpoint();
  EXPECT_EQ(cp.in_window, 0u);
  EXPECT_EQ(cp.c, 0.0);
  EXPECT_EQ(cp.s, 0.0);
}

TEST(LockinDemodulator, CheckpointRestoreReplayIsBitExact) {
  // The rewind contract: checkpoint mid-window (partial I/Q accumulators
  // live), diverge onto garbage samples past more window boundaries,
  // restore, replay the true stream — every envelope double must be
  // bit-identical to a straight-through run.
  const std::size_t kWindow = 8;
  const std::size_t kSplit = 21;  // mid-window: 21 = 2*8 + 5
  const std::size_t kTotal = 43;

  LockinDemodulator straight(kF0, kWindow);
  for (std::size_t i = 0; i < kTotal; ++i) {
    straight.add_sample(static_cast<double>(i) * kDt, wiggly(i));
  }

  LockinDemodulator rewound(kF0, kWindow);
  for (std::size_t i = 0; i < kSplit; ++i) {
    rewound.add_sample(static_cast<double>(i) * kDt, wiggly(i));
  }
  const auto cp = rewound.checkpoint();
  EXPECT_EQ(cp.windows, 2u);
  EXPECT_EQ(cp.in_window, 5u);
  for (std::size_t i = kSplit; i < kTotal; ++i) {
    rewound.add_sample(static_cast<double>(i) * kDt, 99.0);  // the bad branch
  }
  rewound.restore(cp);
  EXPECT_EQ(rewound.window_count(), 2u);
  for (std::size_t i = kSplit; i < kTotal; ++i) {
    rewound.add_sample(static_cast<double>(i) * kDt, wiggly(i));
  }

  EXPECT_EQ(rewound.times(), straight.times());
  EXPECT_EQ(rewound.amplitude(), straight.amplitude());
  EXPECT_EQ(rewound.phase(), straight.phase());
}

TEST(LockinDemodulator, RestoreAheadOfRecordThrows) {
  LockinDemodulator demod(kF0, 4);
  for (std::size_t i = 0; i < 9; ++i) {
    demod.add_sample(static_cast<double>(i) * kDt, wiggly(i));
  }
  const auto cp = demod.checkpoint();  // windows = 2
  demod.clear();
  EXPECT_THROW(demod.restore(cp), std::invalid_argument);
}

TEST(LockinDemodulator, SettledAveragesThePhasorsOfLateWindows) {
  // Window 0 holds a loud transient; windows 1 and 2 hold unit tones a
  // quarter period apart. The readout from window 1's first sample on is
  // their mean phasor (re, im) = (0.5, 0.5), not a mean of amplitudes.
  const std::size_t n = 2 * kPerPeriod;
  LockinDemodulator demod(kF0, n);
  const auto feed = [&](std::size_t window, double amplitude, double phase) {
    for (std::size_t i = window * n; i < (window + 1) * n; ++i) {
      const double t = static_cast<double>(i) * kDt;
      demod.add_sample(t, amplitude * std::cos(math::kTwoPi * kF0 * t + phase));
    }
  };
  feed(0, 5.0, 2.0);
  feed(1, 1.0, 0.0);
  feed(2, 1.0, math::kPi / 2.0);
  const double window1 = static_cast<double>(n) * kDt;

  const auto r = demod.settled(window1);
  ASSERT_TRUE(r.has_value());
  EXPECT_NEAR(r->phasor.real(), 0.5, 1e-12);
  EXPECT_NEAR(r->phasor.imag(), 0.5, 1e-12);
  EXPECT_NEAR(r->amplitude, std::sqrt(0.5), 1e-12);
  EXPECT_NEAR(r->phase, math::kPi / 4.0, 1e-12);

  // A window counts only when its first sample is at or after t_from.
  const auto late = demod.settled(window1 + 0.5 * kDt);
  ASSERT_TRUE(late.has_value());
  EXPECT_NEAR(late->amplitude, 1.0, 1e-12);
  EXPECT_NEAR(late->phase, math::kPi / 2.0, 1e-12);
  EXPECT_FALSE(demod.settled(3.0 * window1).has_value());
}

}  // namespace
}  // namespace swsim::mag
