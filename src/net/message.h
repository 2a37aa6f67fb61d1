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
// Both headers carry credits for the REVERSE stream. The size header's
// grant opens the partner's first credit window, so no data chunk is sent
// before its receiver has entered the round. After that, in the symmetric
// exchanges every PE is simultaneously a sender and a receiver of its
// round partner, so the credits returned for consumed chunks ride on
// outgoing data frames instead of costing a dedicated message each (credit
// piggybacking).
// Standalone StreamCreditMsg messages carry credits only where a data frame
// cannot: the receiver's own stream to the partner is already finished (the
// asymmetric tail), or the receiver is blocked and must not withhold
// credits (liveness). The final credit-tag message of every stream carries
// kStreamCreditCloseFlag — it is how the sender knows no further credit
// messages will arrive, keeping posted receives exactly matched (no stale
// receives, no probe primitive needed).

/// First message of a stream: the payload's total size.
struct StreamSizeHeader {
  uint64_t total_bytes = 0;
  /// The reverse stream's first credit window (Comm::
  /// kStreamSendCreditChunks): sent on round entry, it is what lets the
  /// partner start sending data chunks.
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
};

/// Auto [min, max] chunk bounds span this factor below and above the
/// configured chunk size, so the default exchange sizes chunks adaptively.
inline constexpr size_t kStreamAutoRangeFactor = 8;

}  // namespace demsort::net

#endif  // DEMSORT_NET_MESSAGE_H_
