/**
 * @file
 * Structured evaluation errors crossing the service boundary. The
 * taxonomy (ErrorKind) lives in common/fault.hpp so the low-level
 * layers can classify their own failures; this header gives the eval/
 * and service/ layers their named exception type. EvalError is what a
 * failed EvalTicket carries: the kind drives the healing decisions (the
 * runner retries kTransient layer ranges in place; everything else
 * fails its scenario, and the service keeps a kInvalid failure to
 * answer identical resubmissions).
 */
#pragma once

#include "common/fault.hpp"

namespace bitwave {
namespace eval {

/// Classified evaluation failure; `kind()` is the retry decision
/// input. FaultError (from armed fault points or real
/// detection) converts 1:1 — same taxonomy, service-facing name.
using EvalError = ::bitwave::FaultError;

using ::bitwave::error_kind_name;
using ::bitwave::ErrorKind;

}  // namespace eval
}  // namespace bitwave
