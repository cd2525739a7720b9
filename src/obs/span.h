// Causal span tracing for the report→decision pipeline (DESIGN.md §5j).
//
// Every DetectionReport and ClusterDecision is stamped at origin with a
// deterministic 64-bit trace id derived from (master seed, origin node,
// per-origin sequence number) — no wall clock, no global counter — so the
// same seed stamps identical ids at any worker count. The id rides the
// payload through reliable retries, relay hops, head fallback and sink
// dedup; instrumentation sites along the way emit *span records* (an
// ordinary trace event plus {"span":{"id":...,"dur":...}}) via SID_SPAN:
//
//   span_origin  dur 0   report/decision created (anchor)
//   span_hop     dur>0   one radio hop of a traced unicast (per-hop delay)
//   span_xmit    dur>0   whole traced unicast (src→dst, sum of its hops)
//   span_wait    dur>0   reliable-transport gap before a retransmission
//                        (ack timeout + backoff) or before giving up
//   span_arrive  dur 0   reliable delivery accepted at a node
//   span_fuse    dur 0   a report folded into a decision (links the
//                        decision id to each contributing report id)
//   span_sink    dur 0   decision accepted at the sink (chain terminal)
//
// Grouping records by span id and ordering by t reconstructs the full
// causal chain of any sink decision; the hop/wait durations tile the
// interval [decision created, sink accept], so they sum to the recorded
// sid.decision_latency_s (span_test.cpp enforces this).
//
// Span emission goes through the SID_SPAN macro only — never
// Tracer::emit_span directly — so the SID_ENABLE_METRICS=OFF build
// removes every site (the span-funnel lint enforces the discipline).
#pragma once

#include <cstdint>
#include <string>

#include "obs/trace.h"

namespace sid::obs {

/// What a trace id identifies; mixed into the id so report and decision
/// streams can never collide even for equal (node, seq).
enum class SpanKind : std::uint8_t {
  kReport = 1,    ///< a DetectionReport, seq = per-node report index
  kDecision = 2,  ///< a ClusterDecision, seq = per-head decision seq
  kAcousticContact = 3,  ///< an AcousticContactReport, seq = contact index
  kFused = 4,     ///< a sink-side multi-modal fused detection, seq = index
};

/// Deterministic trace id from (seed, origin node, per-origin seq, kind):
/// a splitmix64-style avalanche of the inputs. Never returns 0 — zero is
/// the "untraced" sentinel on messages and payloads.
constexpr std::uint64_t derive_trace_id(std::uint64_t seed,
                                        std::uint32_t node,
                                        std::uint64_t seq, SpanKind kind) {
  std::uint64_t x =
      seed ^ (0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(node) + 1));
  x += seq + (static_cast<std::uint64_t>(kind) << 56);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x == 0 ? 1 : x;
}

/// The id as it appears in span records: 16 lowercase hex digits.
std::string span_id_hex(std::uint64_t id);

}  // namespace sid::obs

// Span-site macro: compiled out with SID_ENABLE_METRICS=OFF. `tracer` is
// a Tracer*; `t` and `dur` are sim seconds; `id` is a derive_trace_id()
// value; everything after `id` is the Field initializer list for the
// "args" object (variadic so braced lists with commas pass through, like
// SID_TRACE; pass {} for none).
#if SID_METRICS_ENABLED
#define SID_SPAN(tracer, cat, name, t, dur, id, ...)       \
  do {                                                     \
    ::sid::obs::Tracer* sid_span_ptr = (tracer);           \
    if (sid_span_ptr != nullptr && sid_span_ptr->hot(cat)) {           \
      sid_span_ptr->emit_span(cat, name, t, dur, id, __VA_ARGS__);     \
    }                                                      \
  } while (0)
#else
// As SID_TRACE: the arguments sit in a branch that is never taken.
#define SID_SPAN(tracer, cat, name, t, dur, id, ...)       \
  do {                                                     \
    if (false) {                                           \
      static_cast<::sid::obs::Tracer*>(tracer)->emit_span(  \
          cat, name, t, dur, id, __VA_ARGS__);             \
    }                                                      \
  } while (0)
#endif
