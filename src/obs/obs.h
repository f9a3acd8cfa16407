// Umbrella header for the observability layer: tracing spans, metrics,
// and the structured event log. See docs/OBSERVABILITY.md for the span
// naming scheme, the metric catalog, and the disarmed-cost contract.
// The layer is always compiled in; every hook is inert until its sink is
// armed, and an armed sink never changes solver output.
#pragma once

#include "obs/clock.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/physics.h"
#include "obs/profile.h"
#include "obs/progress.h"
#include "obs/trace.h"
