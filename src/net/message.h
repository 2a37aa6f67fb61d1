// Wire-level message representation for the in-process message-passing
// fabric, plus the framing and tuning knobs of the streaming collectives
// (Comm::AlltoallvStream / Comm::AllgatherVStream). Payloads are opaque
// byte buffers: PEs exchange *copies*, never shared application pointers,
// preserving distributed-memory semantics. The buffer itself is a
// net::Frame — a move-only handle that may lease its storage from a
// recycling BufferPool, so the transport moves payloads instead of
// re-copying them at every hop.
#ifndef DEMSORT_NET_MESSAGE_H_
#define DEMSORT_NET_MESSAGE_H_

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "net/buffer_pool.h"

namespace demsort::net {

/// Tags below kCollectiveTagBase are available to applications; tags at or
/// above it are reserved for the collective-operation engine.
inline constexpr int kCollectiveTagBase = 1 << 24;

struct Message {
  int tag = 0;
  Frame payload;
};

// ---------------------------------------------------------------------------
// Streaming-collective wire framing.
//
// Every (sender → receiver) stream of one collective travels as one
// StreamSizeHeader message followed by zero or more chunk messages, each a
// StreamChunkHeader immediately followed by the chunk's payload bytes.
// Both headers carry a `credits` field: in the symmetric exchanges every PE
// is simultaneously a sender and a receiver of its round partner, so
// flow-control credits for the REVERSE stream ride on outgoing data frames
// instead of costing a dedicated message each (credit piggybacking).
// Standalone StreamCreditMsg messages remain the fallback for the cases a
// data frame cannot cover: the sender's own stream is already finished (the
// asymmetric tail), piggybacking is disabled, or the receiver is blocked
// and must not withhold credits (liveness). The final credit-tag message of
// every stream carries kStreamCreditCloseFlag — it is how the sender knows
// no further credit messages will arrive, keeping posted receives exactly
// matched (no stale receives, no probe primitive needed).

/// First message of a stream: the payload's total size.
struct StreamSizeHeader {
  uint64_t total_bytes = 0;
  /// Piggybacked credits for the reverse stream (usually 0 at stream start).
  uint32_t credits = 0;
  uint32_t reserved = 0;
};
static_assert(sizeof(StreamSizeHeader) == 16);
static_assert(std::is_trivially_copyable_v<StreamSizeHeader>);

/// Prefixes every data chunk message.
struct StreamChunkHeader {
  /// Piggybacked credits for the reverse stream.
  uint32_t credits = 0;
  uint32_t reserved = 0;
};
static_assert(sizeof(StreamChunkHeader) == 8);
static_assert(std::is_trivially_copyable_v<StreamChunkHeader>);

/// Marks the last credit-tag message of a stream (sent once, when the
/// receiver has consumed the stream completely).
inline constexpr uint32_t kStreamCreditCloseFlag = 1u;

/// Standalone credit message (batched: one message may return many credits).
struct StreamCreditMsg {
  uint32_t credits = 0;
  uint32_t flags = 0;
};
static_assert(sizeof(StreamCreditMsg) == 8);
static_assert(std::is_trivially_copyable_v<StreamCreditMsg>);

// ---------------------------------------------------------------------------
// Streaming-collective tuning.

/// How flow-control credits travel back to the sender.
enum class StreamCreditMode {
  /// Use the Comm-level default (kPiggyback unless reconfigured).
  kAuto,
  /// One standalone credit message per consumed chunk (the PR 2 protocol).
  kStandalone,
  /// Ride credits on reverse-direction data frames; standalone messages
  /// only for the tail/asymmetric/liveness cases.
  kPiggyback,
};

/// Per-call tuning of a streaming collective. SPMD discipline: every PE of
/// the cluster must pass identical options to the same collective call —
/// the receiver derives its buffering bound (max chunk) from them.
struct StreamOptions {
  /// Initial chunk size; 0 = the Comm default. Chunks stay within
  /// [min_chunk_bytes, max_chunk_bytes]: a per-destination controller
  /// resizes them from the measured consumer drain rate (credit stalls
  /// shrink, sustained credit-ahead streaks grow; see comm.cc), and
  /// min == max pins every chunk (except the tail) to that one size.
  size_t chunk_bytes = 0;
  /// Every chunk is a multiple of this (the record size of typed streams),
  /// so chunk boundaries never split a record even while the controller
  /// resizes. The tail chunk may be smaller.
  size_t align_bytes = 1;
  /// Lower chunk bound; 0 = auto (chunk / kStreamAutoRangeFactor).
  size_t min_chunk_bytes = 0;
  /// Upper chunk bound, a memory cap (an explicit max below the chunk
  /// clamps the chunk); 0 = auto (chunk * kStreamAutoRangeFactor).
  size_t max_chunk_bytes = 0;
  StreamCreditMode credit_mode = StreamCreditMode::kAuto;
  /// Flow-control units granted per consumed wire chunk (and charged per
  /// sent one). A leader engine that coarsens its wire chunk by the
  /// aggregation factor sets this to the same factor, keeping credits
  /// denominated in per-pair chunks — credit totals (and the piggyback /
  /// standalone split the counters report) stay topology-invariant.
  /// 0 or 1 = one credit per wire chunk (the flat engine's unit).
  uint64_t credit_unit = 0;
};

/// Auto [min, max] chunk bounds span this factor below and above the
/// configured chunk size, so the default exchange sizes chunks adaptively.
inline constexpr size_t kStreamAutoRangeFactor = 8;

}  // namespace demsort::net

#endif  // DEMSORT_NET_MESSAGE_H_
