#include "net/comm.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <thread>
#include <utility>

#include "obs/trace.h"
#include "util/timer.h"

namespace demsort::net {

void Comm::Send(int dst, int tag, const void* data, size_t bytes) {
  Isend(dst, tag, data, bytes).Wait();
}

std::vector<uint8_t> Comm::Recv(int src, int tag) {
  return Irecv(src, tag).Take();
}

void Comm::Barrier() {
  TRACE_SPAN("net", "barrier");
  // Dissemination barrier: in round k, PE i signals (i + 2^k) mod P and
  // waits for (i - 2^k) mod P. O(log P) rounds, no central bottleneck.
  // The receive is posted before the send so a capped fabric always has a
  // drain in place.
  int tag = AllocateCollectiveTag();
  for (int step = 1; step < size_; step <<= 1) {
    int to = (rank_ + step) % size_;
    // step < size_ here, so (rank_ - step) needs only one +size_ to stay
    // non-negative; reducing step first would be a no-op that reads as if
    // it mattered.
    int from = (rank_ - step + size_) % size_;
    RecvRequest rr = Irecv(from, tag);
    uint8_t token = 1;
    Isend(to, tag, &token, 1).Wait();
    rr.Wait();
  }
}

void Comm::Broadcast(int root, std::vector<uint8_t>& data) {
  // Binomial tree rooted at `root`, in root-relative rank space: PE `rel`
  // receives from `rel` with its highest set bit cleared, then forwards to
  // rel + b for every power of two b above its own highest bit. Forwarding
  // uses nonblocking sends: both children receive concurrently.
  int tag = AllocateCollectiveTag();
  int rel = (rank_ - root + size_) % size_;
  int first_child_bit = 1;
  if (rel != 0) {
    int high = 1;
    while ((high << 1) <= rel) high <<= 1;
    int parent = ((rel & ~high) + root) % size_;
    data = Recv(parent, tag);
    first_child_bit = high << 1;
  }
  std::vector<SendRequest> forwards;
  for (int b = first_child_bit; rel + b < size_; b <<= 1) {
    int dst = (rel + b + root) % size_;
    forwards.push_back(Isend(dst, tag, data.data(), data.size()));
  }
  for (SendRequest& f : forwards) f.Wait();
}

namespace {

/// Length-prefixed (rank, payload) list — the wire form the gather-shaped
/// collectives pass around: [u32 count] then per entry [u32 rank]
/// [u64 len][len bytes], gathered up the tree allgather's binomial tree.
std::vector<uint8_t> PackRankedParts(
    const std::vector<std::pair<uint32_t, std::vector<uint8_t>>>& entries) {
  std::vector<uint8_t> blob;
  uint32_t count = static_cast<uint32_t>(entries.size());
  blob.insert(blob.end(), reinterpret_cast<uint8_t*>(&count),
              reinterpret_cast<uint8_t*>(&count) + sizeof(count));
  for (const auto& [rank, bytes] : entries) {
    uint32_t r = rank;
    uint64_t n = bytes.size();
    blob.insert(blob.end(), reinterpret_cast<uint8_t*>(&r),
                reinterpret_cast<uint8_t*>(&r) + sizeof(r));
    blob.insert(blob.end(), reinterpret_cast<uint8_t*>(&n),
                reinterpret_cast<uint8_t*>(&n) + sizeof(n));
    blob.insert(blob.end(), bytes.begin(), bytes.end());
  }
  return blob;
}

void UnpackRankedParts(
    const std::vector<uint8_t>& blob,
    std::vector<std::pair<uint32_t, std::vector<uint8_t>>>* out) {
  size_t offset = 0;
  uint32_t count;
  std::memcpy(&count, blob.data(), sizeof(count));
  offset += sizeof(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t r;
    uint64_t n;
    std::memcpy(&r, blob.data() + offset, sizeof(r));
    offset += sizeof(r);
    std::memcpy(&n, blob.data() + offset, sizeof(n));
    offset += sizeof(n);
    out->emplace_back(r, std::vector<uint8_t>(blob.begin() + offset,
                                              blob.begin() + offset + n));
    offset += n;
  }
  DEMSORT_CHECK_EQ(offset, blob.size());
}

}  // namespace

std::vector<std::vector<uint8_t>> Comm::AllgatherBytes(
    const std::vector<uint8_t>& local) {
  // Algorithm switch by payload size, like tuned MPI implementations:
  //  * small contributions: binomial-tree gather to rank 0 + binomial
  //    broadcast — O(log P) rounds, latency-optimal;
  //  * large contributions: direct exchange — every PE ships its own part
  //    to every peer, so the volume (P-1)*|local| is perfectly balanced
  //    instead of concentrating log(P)*P*|local| at the tree root.
  // Contribution sizes may differ across PEs, so the path is agreed on via
  // the (collectively known) MAXIMUM size — learned with a cheap tree
  // exchange, the moral equivalent of the count exchange every real
  // MPI_Allgatherv caller performs first.
  if (size_ > 1) {
    uint64_t my_size = local.size();
    std::vector<uint8_t> size_bytes(sizeof(my_size));
    std::memcpy(size_bytes.data(), &my_size, sizeof(my_size));
    uint64_t max_size = 0;
    for (const std::vector<uint8_t>& part : TreeAllgatherBytes(size_bytes)) {
      uint64_t s;
      DEMSORT_CHECK_EQ(part.size(), sizeof(s));
      std::memcpy(&s, part.data(), sizeof(s));
      max_size = std::max(max_size, s);
    }
    if (max_size > kAllgatherDirectThresholdBytes) {
      // Direct exchange on the nonblocking layer: receives posted first,
      // sends rank-rotated, then drain in arrival-friendly rotated order.
      int tag = AllocateCollectiveTag();
      std::vector<RecvRequest> recvs(size_);
      for (int p = 0; p < size_; ++p) {
        if (p != rank_) recvs[p] = Irecv(p, tag);
      }
      std::vector<SendRequest> sends;
      sends.reserve(size_ - 1);
      for (int off = 1; off < size_; ++off) {
        int p = (rank_ + off) % size_;
        sends.push_back(Isend(p, tag, local.data(), local.size()));
      }
      std::vector<std::vector<uint8_t>> out(size_);
      out[rank_] = local;
      for (int off = 1; off < size_; ++off) {
        int p = (rank_ - off + size_) % size_;
        out[p] = recvs[p].Take();
      }
      for (SendRequest& s : sends) s.Wait();
      return out;
    }
  }
  return TreeAllgatherBytes(local);
}

std::vector<std::vector<uint8_t>> Comm::TreeAllgatherBytes(
    const std::vector<uint8_t>& local) {
  int tag = AllocateCollectiveTag();

  // parts this PE has accumulated so far, keyed by contributor rank.
  std::vector<std::pair<uint32_t, std::vector<uint8_t>>> parts;
  parts.emplace_back(static_cast<uint32_t>(rank_), local);

  for (int bit = 1; bit < size_; bit <<= 1) {
    if ((rank_ & bit) != 0) {
      std::vector<uint8_t> blob = PackRankedParts(parts);
      Send(rank_ - bit, tag, blob.data(), blob.size());
      parts.clear();
      break;
    }
    if (rank_ + bit < size_) {
      std::vector<uint8_t> blob = Recv(rank_ + bit, tag);
      UnpackRankedParts(blob, &parts);
    }
  }

  std::vector<uint8_t> packed;
  if (rank_ == 0) {
    DEMSORT_CHECK_EQ(parts.size(), static_cast<size_t>(size_));
    packed = PackRankedParts(parts);
  }
  Broadcast(0, packed);

  std::vector<std::pair<uint32_t, std::vector<uint8_t>>> all;
  UnpackRankedParts(packed, &all);
  std::vector<std::vector<uint8_t>> out(size_);
  for (auto& [rank, bytes] : all) {
    DEMSORT_CHECK_LT(rank, static_cast<uint32_t>(size_));
    out[rank] = std::move(bytes);
  }
  return out;
}

namespace {

/// Posted chunk receives per source: 2 double-buffers arrival against
/// consumption while keeping untaken payloads at O(chunk) per source.
constexpr uint64_t kStreamRecvLookahead = 2;

/// Short local name for the credit window (documented in comm.h).
constexpr uint64_t kStreamSendCredit = Comm::kStreamSendCreditChunks;

/// Event-driven pacing for the streaming poll loops. Every receive a loop
/// posts hooks its completion (RecvRequest::OnDone) to Signal(), so an
/// idle pass sleeps on the eventcount and wakes the instant ANY hooked
/// receive lands — on an oversubscribed host it is the nap quantum, not
/// bandwidth, that otherwise bounds every chunk round-trip. The wait stays
/// TIMED because not every gate is a receive (send-window reclaim on a
/// remote transport, a peer whose consumer stalls): the fallback nap
/// preserves the old polling loop's liveness exactly. Snapshot() is taken
/// BEFORE the poll pass, so a receive that completes mid-pass makes the
/// next IdleWait return immediately — no wakeup is lost. The eventcount
/// lives behind a shared_ptr because hooks run on the COMPLETING thread
/// (a shared-memory sender, the demux reactor): one may still be inside
/// Signal() after the waiter observed done() and moved on.
class RecvSignal {
 public:
  /// Completion hook to attach to every receive the loop waits on.
  std::function<void()> Hook() const {
    return [s = s_] {
      s->seq.fetch_add(1);  // seq_cst: orders against the waiter's flag
      if (s->waiting.load()) {
        std::lock_guard<std::mutex> lock(s->mu);
        s->cv.notify_all();
      }
    };
  }
  uint64_t Snapshot() const { return s_->seq.load(); }
  void Reset() { idle_polls_ = 0; }
  void IdleWait(uint64_t seen) {
    if (s_->seq.load() != seen) return;
    if (++idle_polls_ <= kSpinPolls) {
      std::this_thread::yield();
      return;
    }
    std::unique_lock<std::mutex> lock(s_->mu);
    s_->waiting.store(true);
    s_->cv.wait_for(lock, std::chrono::microseconds(100),
                    [&] { return s_->seq.load() != seen; });
    s_->waiting.store(false);
  }

 private:
  static constexpr int kSpinPolls = 16;
  struct State {
    std::atomic<uint64_t> seq{0};
    std::atomic<bool> waiting{false};
    std::mutex mu;
    std::condition_variable cv;
  };
  std::shared_ptr<State> s_ = std::make_shared<State>();
  int idle_polls_ = 0;
};

}  // namespace

Comm::ResolvedStreamTuning Comm::ResolveStreamTuning(
    const StreamOptions& options) const {
  ResolvedStreamTuning t;
  t.align_bytes = std::max<uint64_t>(1, options.align_bytes);
  uint64_t base = options.chunk_bytes != 0 ? options.chunk_bytes
                                           : kDefaultStreamChunkBytes;
  t.base_chunk_bytes =
      std::max(t.align_bytes, base / t.align_bytes * t.align_bytes);
  // An explicit max is a memory CAP: the base (and therefore every wire
  // chunk, in any mode) is clamped into it, never the cap raised to the
  // base — bench_util's watermark guidance relies on this.
  if (options.max_chunk_bytes != 0) {
    uint64_t cap = std::max(t.align_bytes, options.max_chunk_bytes /
                                               t.align_bytes * t.align_bytes);
    t.base_chunk_bytes = std::min(t.base_chunk_bytes, cap);
  }
  // Fixed chunking is simply min == max: explicit bounds are taken as given
  // (aligned, and widened to contain the base), auto bounds span
  // kStreamAutoRangeFactor either side of the base.
  uint64_t min = options.min_chunk_bytes != 0
                     ? options.min_chunk_bytes
                     : t.base_chunk_bytes / kStreamAutoRangeFactor;
  min = std::max(t.align_bytes, min / t.align_bytes * t.align_bytes);
  t.min_chunk_bytes = std::min(min, t.base_chunk_bytes);
  uint64_t max = options.max_chunk_bytes != 0
                     ? options.max_chunk_bytes
                     : t.base_chunk_bytes * kStreamAutoRangeFactor;
  max = std::max(t.align_bytes, max / t.align_bytes * t.align_bytes);
  t.max_chunk_bytes = std::max(max, t.base_chunk_bytes);
  return t;
}

// The streaming exchange engine. P-1 symmetric pairwise rounds: in round r
// this PE exchanges full-duplex chunked streams with exactly the partner
// that is exchanging with it (XOR partners at power-of-two P, tournament
// pairing (r - rank) mod P otherwise; the one round whose partner is the
// PE itself delivers the self payload zero-copy). Symmetry is what makes
// credit piggybacking possible: while I stream chunks to my partner, the
// credits I owe it for ITS chunks ride my outgoing frame headers.
//
// Per-direction wire protocol (tags shared across rounds — each ordered PE
// pair meets in exactly one round, so per-(src, tag) FIFO keeps streams
// separate): StreamSizeHeader, then chunk messages (StreamChunkHeader +
// payload), each chunk <= the resolved max chunk so the receiver can bound
// its posted lookahead without knowing the adaptive controller's choices.
// Credits: the size header grants the first kStreamSendCreditChunks, then
// one per consumed chunk, piggybacked on a reverse data frame, or (at the
// tail and when blocked) as a standalone StreamCreditMsg; the receiver's
// LAST credit-tag message carries kStreamCreditCloseFlag (sent when it has
// consumed the stream), which is how the sender knows to stop re-posting
// credit receives — every posted receive is matched, nothing leaks.
//
// Liveness: no indefinite blocking wait is taken inside a round — every
// gate (partner credits, send-window admission, incoming chunks) is polled
// while the other directions keep progressing; a pass that makes no
// progress first flushes any piggyback-withheld credits standalone (a
// blocked PE must never starve its partner's sender), then sleeps on the
// RecvSignal eventcount, woken by the next receive completion or by the
// timed fallback for the gates that are not receives.
// Rounds of different PEs need not be synchronized: a fast PE's size
// header simply queues at the future partner, and a waiting chain always
// ends at a pair that is in its mutual round, which makes progress. No
// DATA chunk goes to a partner before it has entered the round: each
// side's size header grants the first kStreamSendCreditChunks credits. A
// chunk parked in a future round's mailbox could otherwise hold a
// transport-wide pause — the hierarchical demux stops a whole uplink at
// one mailbox's watermark — that the partner's current round needs lifted.
void Comm::AlltoallvStream(const StreamSendProvider& send_for,
                           const ChunkConsumer& consumer,
                           const StreamSizeCallback& on_size,
                           const StreamOptions& options) {
  const ResolvedStreamTuning tune = ResolveStreamTuning(options);
  DEMSORT_CHECK_GT(tune.base_chunk_bytes, 0u);
  TRACE_SPAN2("net", "a2a.stream", "pes", size_, "base_chunk",
              tune.base_chunk_bytes);

  // Self delivery is zero-copy: the provider's span goes straight to the
  // consumer in chunk-size pieces (local memory traffic, like self-sends).
  auto deliver_self = [&] {
    std::span<const uint8_t> mine = send_for(rank_);
    if (on_size) on_size(rank_, mine.size());
    if (mine.empty()) {
      consumer(rank_, {}, true);
      return;
    }
    const uint64_t chunk = tune.base_chunk_bytes;
    for (uint64_t off = 0; off < mine.size(); off += chunk) {
      uint64_t n = std::min<uint64_t>(chunk, mine.size() - off);
      consumer(rank_, mine.subspan(off, n), off + n == mine.size());
    }
  };
  if (size_ == 1) {
    deliver_self();
    return;
  }

  const int data_tag = AllocateCollectiveTag();
  const int credit_tag = AllocateCollectiveTag();
  NetStats& my_stats = transport_->stats(rank_);
  if (stream_tuning_.size() != static_cast<size_t>(size_)) {
    stream_tuning_.assign(size_, StreamPeerTuning{});
  }

  // Nonblocking send window shared across rounds: completed volume is
  // reclaimed oldest-first; a full window defers the next chunk instead of
  // parking the thread, so consumption continues while waiting.
  std::deque<std::pair<SendRequest, size_t>> outstanding;
  size_t inflight_bytes = 0;
  auto reclaim_sends = [&] {
    while (!outstanding.empty() && outstanding.front().first.done()) {
      inflight_bytes -= outstanding.front().second;
      outstanding.pop_front();
    }
  };
  auto track_send = [&](SendRequest sr, size_t n) {
    inflight_bytes += n;
    outstanding.emplace_back(std::move(sr), n);
  };

  // Credit intakes of FINISHED rounds whose close has not arrived yet (the
  // partner is still consuming our tail): polled opportunistically during
  // later rounds, hard-absorbed at the end. Their counts are stale (our
  // stream to that partner is fully sent) but every message must be taken
  // or it would sit in the mailbox forever.
  // Declared before every container of hooked receives so the hooks'
  // shared state outlives them (see RecvSignal).
  RecvSignal signal;
  struct PendingClose {
    int peer;
    RecvRequest rr;
  };
  std::vector<PendingClose> closes;
  // Taken as a Frame (not a detached vector) so the tiny credit buffers
  // recycle into the pool instead of costing a fresh allocation each.
  auto absorb_credit_msg = [&](Frame msg, uint64_t* credits_out) -> bool {
    DEMSORT_CHECK_EQ(msg.size(), sizeof(StreamCreditMsg));
    StreamCreditMsg cm;
    std::memcpy(&cm, msg.data(), sizeof(cm));
    if (credits_out != nullptr) *credits_out += cm.credits;
    return (cm.flags & kStreamCreditCloseFlag) != 0;
  };
  auto poll_closes = [&]() -> bool {
    bool progress = false;
    for (size_t i = 0; i < closes.size();) {
      if (!closes[i].rr.done()) {
        ++i;
        continue;
      }
      progress = true;
      if (absorb_credit_msg(closes[i].rr.TakeFrame(), nullptr)) {
        closes.erase(closes.begin() + i);
      } else {
        closes[i].rr = Irecv(closes[i].peer, credit_tag);
        closes[i].rr.OnDone(signal.Hook());
        ++i;
      }
    }
    return progress;
  };

  const bool pow2 = (size_ & (size_ - 1)) == 0;

  for (int r = 0; r < size_; ++r) {
    const int q = pow2 ? (rank_ ^ r) : (r - rank_ + 2 * size_) % size_;
    TRACE_SPAN2("net", "stream.round", "partner", q, "round", r);
    if (q == rank_) {
      deliver_self();
      continue;
    }

    StreamPeerTuning& tuning = stream_tuning_[q];
    uint64_t chunk =
        tune.adaptive()
            ? std::clamp(tuning.chunk_bytes != 0 ? tuning.chunk_bytes
                                                 : tune.base_chunk_bytes,
                         tune.min_chunk_bytes, tune.max_chunk_bytes)
            : tune.base_chunk_bytes;
    chunk = std::max(tune.align_bytes,
                     chunk / tune.align_bytes * tune.align_bytes);

    // ---- outgoing stream.
    const std::span<const uint8_t> out = send_for(q);
    const uint64_t total_out = out.size();
    uint64_t sent_bytes = 0;
    uint64_t chunks_sent = 0;
    // Cumulative credits q granted this round, starting with the window
    // its size header grants once q has entered the round.
    uint64_t credits_in = 0;
    bool header_sent = false;
    int64_t stall_started_ns = -1;

    // ---- credit intake (one posted receive until the close arrives).
    RecvRequest credit_rr = Irecv(q, credit_tag);
    credit_rr.OnDone(signal.Hook());
    bool close_seen = false;

    // ---- incoming stream.
    RecvRequest header_rr = Irecv(q, data_tag);
    header_rr.OnDone(signal.Hook());
    bool size_known = false;
    uint64_t total_in = 0;
    uint64_t taken_bytes = 0;
    std::deque<RecvRequest> inflight;
    uint64_t pending_credits = 0;  // owed to q, not yet returned
    bool close_sent = false;

    // Sends q's credits standalone: always when closing (the mandatory
    // last credit message of the stream), otherwise only if any are
    // pending. A blocked or tail-phase receiver must not withhold.
    auto flush_credits = [&](bool closing) {
      if (close_sent || (!closing && pending_credits == 0)) return;
      DEMSORT_CHECK_LE(pending_credits, uint64_t{UINT32_MAX});
      StreamCreditMsg cm{static_cast<uint32_t>(pending_credits),
                         closing ? kStreamCreditCloseFlag : 0u};
      pending_credits = 0;
      track_send(Isend(q, credit_tag, &cm, sizeof(cm)), sizeof(cm));
      my_stats.RecordCreditMsg();
      if (closing) close_sent = true;
    };

    // Credits can ride an upcoming data frame only while our own stream
    // to q still has chunks to send.
    auto piggyback_possible = [&]() -> bool {
      return !header_sent || sent_bytes < total_out;
    };

    // Posted chunk receives: bounded by the number of messages PROVABLY
    // still to arrive — ceil(remaining / max_chunk) — so the adaptive
    // sender can choose any chunk sizes <= max without a posted receive
    // ever going unmatched.
    auto post_recvs = [&] {
      if (!size_known || total_in == 0) return;
      uint64_t remaining = total_in - taken_bytes;
      uint64_t guaranteed =
          (remaining + tune.max_chunk_bytes - 1) / tune.max_chunk_bytes;
      while (inflight.size() <
             std::min<uint64_t>(kStreamRecvLookahead, guaranteed)) {
        inflight.push_back(Irecv(q, data_tag));
        inflight.back().OnDone(signal.Hook());
      }
    };

    auto poll_credits = [&]() -> bool {
      bool progress = false;
      while (!close_seen && credit_rr.done()) {
        progress = true;
        close_seen = absorb_credit_msg(credit_rr.TakeFrame(), &credits_in);
        if (!close_seen) {
          credit_rr = Irecv(q, credit_tag);
          credit_rr.OnDone(signal.Hook());
        }
      }
      return progress;
    };

    auto poll_recv = [&]() -> bool {
      bool progress = false;
      if (!size_known) {
        if (!header_rr.done()) return false;
        Frame hdr = header_rr.TakeFrame();
        DEMSORT_CHECK_EQ(hdr.size(), sizeof(StreamSizeHeader));
        StreamSizeHeader h;
        std::memcpy(&h, hdr.data(), sizeof(h));
        total_in = h.total_bytes;
        credits_in += h.credits;
        size_known = true;
        progress = true;
        if (on_size) on_size(q, total_in);
        if (total_in == 0) {
          consumer(q, {}, true);
          flush_credits(/*closing=*/true);
        } else {
          post_recvs();
        }
      }
      while (taken_bytes < total_in && !inflight.empty() &&
             inflight.front().done()) {
        // The chunk stays a pooled Frame end to end: the header is
        // Consumed (an offset bump, no memmove).
        Frame data = inflight.front().TakeFrame();
        inflight.pop_front();
        DEMSORT_CHECK_GT(data.size(), sizeof(StreamChunkHeader));
        StreamChunkHeader ch;
        std::memcpy(&ch, data.data(), sizeof(ch));
        credits_in += ch.credits;
        data.Consume(sizeof(StreamChunkHeader));
        size_t n = data.size();
        DEMSORT_CHECK_LE(n, tune.max_chunk_bytes);
        DEMSORT_CHECK_LE(taken_bytes + n, total_in);
        taken_bytes += n;
        bool last = taken_bytes == total_in;
        consumer(q, data.span(), last);
        ++pending_credits;
        progress = true;
        if (last) {
          flush_credits(/*closing=*/true);
        } else {
          post_recvs();
          if (!piggyback_possible()) flush_credits(/*closing=*/false);
        }
      }
      return progress;
    };

    auto try_send = [&]() -> bool {
      bool progress = false;
      if (!header_sent) {
        // Sent on round entry, so its grant of the first credit window is
        // what lets q start streaming to this PE.
        StreamSizeHeader h{total_out, static_cast<uint32_t>(kStreamSendCredit),
                           0};
        track_send(Isend(q, data_tag, &h, sizeof(h)), sizeof(h));
        header_sent = true;
        progress = true;
      }
      // Until q's header lands, q has not entered the round: that wait is
      // round skew, not consumer pacing, so it starts no stall clock.
      while (size_known && sent_bytes < total_out) {
        if (chunks_sent >= credits_in) {
          // Credit-gated: the consumer's pace, not the transport's
          // admission, is what must throttle this stream.
          if (stall_started_ns < 0) stall_started_ns = NowNanos();
          break;
        }
        if (stall_started_ns >= 0) {
          // The credit gate just reopened: the whole wait was consumer
          // pacing, the exact signal the trace exists to make visible.
          TRACE_COMPLETE1("net", "stream.credit_stall", stall_started_ns,
                          NowNanos() - stall_started_ns, "partner", q);
          if (!tune.adaptive()) stall_started_ns = -1;
        }
        if (tune.adaptive()) {
          if (stall_started_ns >= 0) {
            // The gate just reopened after a stall: a long one means the
            // consumer is the bottleneck — halve for finer pacing.
            if (NowNanos() - stall_started_ns > kStreamShrinkStallNs) {
              chunk = std::max(tune.min_chunk_bytes,
                               chunk / 2 / tune.align_bytes *
                                   tune.align_bytes);
              tuning.fast_streak = 0;
            }
            stall_started_ns = -1;
          } else if (chunks_sent >= kStreamSendCredit) {
            // Credit was already waiting once the window applied at all:
            // the consumer keeps up — amortize per-chunk overhead.
            if (++tuning.fast_streak >= kStreamGrowStreak) {
              chunk = std::min(tune.max_chunk_bytes, chunk * 2);
              tuning.fast_streak = 0;
            }
          }
        }
        reclaim_sends();
        size_t n = static_cast<size_t>(
            std::min<uint64_t>(chunk, total_out - sent_bytes));
        size_t frame = sizeof(StreamChunkHeader) + n;
        if (send_window_bytes_ != 0 && !outstanding.empty() &&
            inflight_bytes + frame > send_window_bytes_) {
          break;  // admission-gated; not a consumer-pace signal
        }
        uint32_t carried = 0;
        if (pending_credits > 0) {
          carried = static_cast<uint32_t>(
              std::min<uint64_t>(pending_credits, UINT32_MAX));
          pending_credits -= carried;
          my_stats.RecordPiggybackedCredits(carried);
        }
        StreamChunkHeader ch{carried, 0};
        track_send(IsendGather(q, data_tag, &ch, sizeof(ch),
                               out.data() + sent_bytes, n),
                   frame);
        sent_bytes += n;
        ++chunks_sent;
        progress = true;
      }
      return progress;
    };

    while (!(header_sent && sent_bytes == total_out && size_known &&
             taken_bytes == total_in)) {
      const uint64_t seen = signal.Snapshot();
      bool progress = try_send();
      progress |= poll_recv();
      progress |= poll_credits();
      progress |= poll_closes();
      if (progress) {
        signal.Reset();
        continue;
      }
      // Blocked with nothing to do: release any piggyback-withheld
      // credits first — a stalled PE must never starve its partner's
      // sender (the liveness valve of the piggyback protocol).
      flush_credits(/*closing=*/false);
      signal.IdleWait(seen);
    }
    DEMSORT_CHECK(close_sent);
    DEMSORT_CHECK(inflight.empty());
    poll_credits();
    if (!close_seen) {
      closes.push_back(PendingClose{q, std::move(credit_rr)});
    }
    if (tune.adaptive()) tuning.chunk_bytes = chunk;
    my_stats.SetStreamChunkBytes(chunk);
  }

  // Absorb the remaining closes. Safe to block: a pending close only needs
  // its sender to finish consuming our (fully sent) stream, which requires
  // nothing further from this PE.
  for (PendingClose& pc : closes) {
    while (!absorb_credit_msg(pc.rr.TakeFrame(), nullptr)) {
      pc.rr = Irecv(pc.peer, credit_tag);
    }
  }
  for (auto& [sr, n] : outstanding) sr.Wait();
}

uint64_t Comm::ExclusiveScanSum(uint64_t local) {
  std::vector<uint64_t> all = Allgather(local);
  uint64_t acc = 0;
  for (int p = 0; p < rank_; ++p) acc += all[p];
  return acc;
}

NetStatsSnapshot Comm::StatsSnapshot() const {
  return transport_->stats(rank_).Snapshot();
}

}  // namespace demsort::net
