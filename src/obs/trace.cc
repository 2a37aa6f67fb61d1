#include "obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <unordered_map>

namespace demsort::obs {

namespace internal {
constinit thread_local TraceRing* t_ring = nullptr;
constinit thread_local int t_rank = -1;
constinit thread_local const char* t_name = nullptr;
}  // namespace internal

Tracer& Tracer::Get() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

void Tracer::Enable() {
  enabled_.store(true, std::memory_order_relaxed);
  int64_t expected = -1;
  session_start_ns_.compare_exchange_strong(expected, NowNanos(),
                                            std::memory_order_relaxed);
}

void Tracer::Disable() { enabled_.store(false, std::memory_order_relaxed); }

void Tracer::MarkSessionStart() {
  int64_t expected = -1;
  session_start_ns_.compare_exchange_strong(expected, NowNanos(),
                                            std::memory_order_relaxed);
}

TraceRing& Tracer::Ring() {
  if (internal::t_ring == nullptr) {
    internal::t_ring = RegisterThread();
  }
  return *internal::t_ring;
}

TraceRing* Tracer::RegisterThread() {
  std::lock_guard<std::mutex> lock(mu_);
  rings_.push_back(std::make_unique<TraceRing>());
  TraceRing* ring = rings_.back().get();
  ring->tid = next_tid_.fetch_add(1, std::memory_order_relaxed);
  ring->thread_name = internal::t_name;
  return ring;
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& ring : rings_) ring->Clear();
  session_start_ns_.store(-1, std::memory_order_relaxed);
}

uint64_t Tracer::DroppedEvents() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t dropped = 0;
  for (const auto& ring : rings_) dropped += ring->dropped();
  return dropped;
}

namespace {

void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back((v >> (8 * i)) & 0xff);
}
void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back((v >> (8 * i)) & 0xff);
}
void PutI64(std::vector<uint8_t>* out, int64_t v) {
  PutU64(out, static_cast<uint64_t>(v));
}

struct Reader {
  const uint8_t* p;
  size_t left;
  bool ok = true;

  bool Take(void* dst, size_t n) {
    if (left < n) {
      ok = false;
      return false;
    }
    std::memcpy(dst, p, n);
    p += n;
    left -= n;
    return true;
  }
  uint32_t U32() {
    uint8_t b[4] = {0, 0, 0, 0};
    Take(b, 4);
    return uint32_t{b[0]} | uint32_t{b[1]} << 8 | uint32_t{b[2]} << 16 |
           uint32_t{b[3]} << 24;
  }
  uint64_t U64() {
    uint64_t v = 0;
    uint8_t b[8] = {0};
    Take(b, 8);
    for (int i = 7; i >= 0; --i) v = (v << 8) | b[i];
    return v;
  }
  int64_t I64() { return static_cast<int64_t>(U64()); }
};

constexpr uint32_t kMagic = 0x44545243;  // "DTRC"
constexpr uint32_t kVersion = 1;
constexpr uint32_t kNoString = UINT32_MAX;

/// Interns string literals by pointer identity (equal literals in different
/// TUs may get two ids; harmless in the output).
class StringTable {
 public:
  uint32_t Id(const char* s) {
    if (s == nullptr) return kNoString;
    auto [it, fresh] = ids_.try_emplace(s, 0);
    if (fresh) {
      it->second = static_cast<uint32_t>(strings_.size());
      strings_.emplace_back(s);
    }
    return it->second;
  }
  const std::vector<std::string>& strings() const { return strings_; }

 private:
  std::unordered_map<const char*, uint32_t> ids_;
  std::vector<std::string> strings_;
};

void AppendJsonEscaped(std::string* out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

}  // namespace

std::vector<uint8_t> Tracer::SerializeRank(int rank) const {
  // Snapshot the registry; rings themselves are safe to read while other
  // threads are *not* writing (the collectors disable tracing first).
  std::vector<TraceRing*> rings;
  {
    std::lock_guard<std::mutex> lock(mu_);
    rings.reserve(rings_.size());
    for (const auto& r : rings_) rings.push_back(r.get());
  }
  int64_t t0 = session_start_ns_.load(std::memory_order_relaxed);
  if (t0 < 0) t0 = 0;

  StringTable strings;
  std::vector<std::pair<uint32_t, uint32_t>> thread_names;
  std::vector<uint8_t> body;
  uint64_t nevents = 0;
  uint64_t dropped = 0;
  for (TraceRing* ring : rings) {
    uint64_t head = ring->head();
    dropped += ring->dropped();
    uint64_t first = head > TraceRing::kCapacity ? head - TraceRing::kCapacity
                                                 : 0;
    bool contributed = false;
    for (uint64_t i = first; i < head; ++i) {
      const SpanEvent& e = ring->at(i);
      if (rank >= 0 && e.rank != rank) continue;
      contributed = true;
      PutI64(&body, e.ts_ns - t0);
      PutI64(&body, e.dur_ns);
      PutU32(&body, strings.Id(e.name));
      PutU32(&body, strings.Id(e.cat));
      PutU32(&body, strings.Id(e.arg1_name));
      PutU32(&body, strings.Id(e.arg2_name));
      PutU64(&body, e.arg1);
      PutU64(&body, e.arg2);
      PutU32(&body, static_cast<uint32_t>(e.rank));
      PutU32(&body, ring->tid);
      body.push_back(static_cast<uint8_t>(e.type));
      ++nevents;
    }
    if (contributed && ring->thread_name != nullptr) {
      thread_names.emplace_back(ring->tid, strings.Id(ring->thread_name));
    }
  }

  std::vector<uint8_t> blob;
  PutU32(&blob, kMagic);
  PutU32(&blob, kVersion);
  PutU64(&blob, dropped);
  PutU32(&blob, static_cast<uint32_t>(strings.strings().size()));
  for (const std::string& s : strings.strings()) {
    PutU32(&blob, static_cast<uint32_t>(s.size()));
    blob.insert(blob.end(), s.begin(), s.end());
  }
  PutU32(&blob, static_cast<uint32_t>(thread_names.size()));
  for (auto [tid, sid] : thread_names) {
    PutU32(&blob, tid);
    PutU32(&blob, sid);
  }
  PutU64(&blob, nevents);
  blob.insert(blob.end(), body.begin(), body.end());
  return blob;
}

bool Tracer::DecodeWire(const std::vector<uint8_t>& blob, WireTrace* out) {
  Reader r{blob.data(), blob.size()};
  if (r.U32() != kMagic || r.U32() != kVersion) return false;
  out->dropped = r.U64();
  uint32_t nstrings = r.U32();
  if (!r.ok || nstrings > blob.size()) return false;
  out->strings.reserve(nstrings);
  for (uint32_t i = 0; i < nstrings; ++i) {
    uint32_t len = r.U32();
    if (!r.ok || len > r.left) return false;
    out->strings.emplace_back(reinterpret_cast<const char*>(r.p), len);
    r.p += len;
    r.left -= len;
  }
  uint32_t nthreads = r.U32();
  if (!r.ok || nthreads > blob.size()) return false;
  for (uint32_t i = 0; i < nthreads; ++i) {
    uint32_t tid = r.U32();
    uint32_t sid = r.U32();
    out->thread_names.emplace_back(tid, sid);
  }
  uint64_t nevents = r.U64();
  if (!r.ok || nevents > blob.size()) return false;
  out->events.reserve(nevents);
  for (uint64_t i = 0; i < nevents; ++i) {
    WireEvent e;
    e.ts_ns = r.I64();
    e.dur_ns = r.I64();
    e.name = r.U32();
    e.cat = r.U32();
    e.arg1_name = r.U32();
    e.arg2_name = r.U32();
    e.arg1 = r.U64();
    e.arg2 = r.U64();
    e.rank = static_cast<int32_t>(r.U32());
    e.tid = r.U32();
    uint8_t type = 0;
    r.Take(&type, 1);
    e.type = static_cast<EventType>(type);
    if (!r.ok) return false;
    for (uint32_t sid : {e.name, e.cat, e.arg1_name, e.arg2_name}) {
      if (sid != kNoString && sid >= out->strings.size()) return false;
    }
    out->events.push_back(e);
  }
  return r.ok;
}

bool Tracer::WriteChromeTraceJson(
    const std::string& path, const std::vector<std::vector<uint8_t>>& blobs) {
  // Decode every rank's blob, then regroup events into (pid=rank, tid)
  // tracks. Each track is sorted by timestamp and repaired: an E with no
  // matching B (its begin fell off the ring) is dropped, and every B still
  // open at the end of the track (a killed run) is closed at the track's
  // last timestamp — the output is always loadable.
  struct TrackKey {
    int32_t rank;
    uint32_t blob_idx;  // tids are per-process; disambiguate across blobs
    uint32_t tid;
    bool operator<(const TrackKey& o) const {
      if (rank != o.rank) return rank < o.rank;
      if (blob_idx != o.blob_idx) return blob_idx < o.blob_idx;
      return tid < o.tid;
    }
  };
  struct TrackEvent {
    WireEvent e;
    uint32_t blob_idx;
  };
  std::vector<WireTrace> traces(blobs.size());
  uint64_t dropped_total = 0;
  std::map<TrackKey, std::vector<TrackEvent>> tracks;
  std::map<TrackKey, std::string> track_names;
  for (size_t b = 0; b < blobs.size(); ++b) {
    if (!DecodeWire(blobs[b], &traces[b])) continue;  // skip malformed ranks
    dropped_total += traces[b].dropped;
    std::unordered_map<uint32_t, std::string> names_by_tid;
    for (auto [tid, sid] : traces[b].thread_names) {
      if (sid < traces[b].strings.size()) {
        names_by_tid[tid] = traces[b].strings[sid];
      }
    }
    for (const WireEvent& e : traces[b].events) {
      TrackKey key{e.rank, static_cast<uint32_t>(b), e.tid};
      tracks[key].push_back(TrackEvent{e, static_cast<uint32_t>(b)});
      auto it = names_by_tid.find(e.tid);
      if (it != names_by_tid.end()) track_names[key] = it->second;
    }
  }

  std::string out;
  out.reserve(1 << 20);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  auto emit = [&out, &first](const std::string& line) {
    if (!first) out += ",\n";
    first = false;
    out += line;
  };
  char buf[256];

  // Flat tid namespace in the output: tids from different processes (blobs)
  // could collide, so tracks are renumbered per pid.
  std::map<int32_t, uint32_t> next_out_tid;
  std::vector<int32_t> pids_seen;
  for (auto& [key, events] : tracks) {
    uint32_t out_tid = next_out_tid[key.rank]++;
    if (next_out_tid[key.rank] == 1) pids_seen.push_back(key.rank);

    std::stable_sort(events.begin(), events.end(),
                     [](const TrackEvent& a, const TrackEvent& b) {
                       return a.e.ts_ns < b.e.ts_ns;
                     });

    auto name_of = [&traces](const TrackEvent& te, uint32_t sid) -> std::string {
      if (sid == kNoString || sid >= traces[te.blob_idx].strings.size()) {
        return std::string();
      }
      return traces[te.blob_idx].strings[sid];
    };

    auto it = track_names.find(key);
    if (it != track_names.end()) {
      std::snprintf(buf, sizeof(buf),
                    "{\"ph\":\"M\",\"pid\":%d,\"tid\":%u,"
                    "\"name\":\"thread_name\",\"args\":{\"name\":\"",
                    key.rank, out_tid);
      std::string line = buf;
      AppendJsonEscaped(&line, it->second);
      line += "\"}}";
      emit(line);
    }

    // Balance pass: track B/E depth; drop orphaned Es, close dangling Bs.
    std::vector<const TrackEvent*> open;
    int64_t last_ts = 0;
    for (const TrackEvent& te : events) {
      const WireEvent& e = te.e;
      last_ts = std::max(last_ts, e.ts_ns + (e.type == EventType::kComplete
                                                 ? e.dur_ns
                                                 : 0));
      const char* ph = nullptr;
      switch (e.type) {
        case EventType::kBegin:
          ph = "B";
          open.push_back(&te);
          break;
        case EventType::kEnd:
          if (open.empty()) continue;  // begin lost to ring wrap
          ph = "E";
          open.pop_back();
          break;
        case EventType::kInstant:
          ph = "i";
          break;
        case EventType::kComplete:
          ph = "X";
          break;
      }
      std::string line;
      std::snprintf(buf, sizeof(buf), "{\"ph\":\"%s\",\"pid\":%d,\"tid\":%u",
                    ph, key.rank, out_tid);
      line += buf;
      std::snprintf(buf, sizeof(buf), ",\"ts\":%.3f",
                    static_cast<double>(e.ts_ns) / 1e3);
      line += buf;
      if (e.type == EventType::kComplete) {
        std::snprintf(buf, sizeof(buf), ",\"dur\":%.3f",
                      static_cast<double>(e.dur_ns) / 1e3);
        line += buf;
      }
      if (e.type == EventType::kInstant) line += ",\"s\":\"t\"";
      line += ",\"name\":\"";
      AppendJsonEscaped(&line, name_of(te, e.name));
      line += "\"";
      std::string cat = name_of(te, e.cat);
      if (!cat.empty()) {
        line += ",\"cat\":\"";
        AppendJsonEscaped(&line, cat);
        line += "\"";
      }
      if (e.type != EventType::kEnd && e.arg1_name != kNoString) {
        line += ",\"args\":{\"";
        AppendJsonEscaped(&line, name_of(te, e.arg1_name));
        std::snprintf(buf, sizeof(buf), "\":%llu",
                      static_cast<unsigned long long>(e.arg1));
        line += buf;
        if (e.arg2_name != kNoString) {
          line += ",\"";
          AppendJsonEscaped(&line, name_of(te, e.arg2_name));
          std::snprintf(buf, sizeof(buf), "\":%llu",
                        static_cast<unsigned long long>(e.arg2));
          line += buf;
        }
        line += "}";
      }
      line += "}";
      emit(line);
    }
    // Close spans left open by a mid-sort kill (or span-in-flight capture).
    for (size_t i = open.size(); i > 0; --i) {
      std::snprintf(buf, sizeof(buf),
                    "{\"ph\":\"E\",\"pid\":%d,\"tid\":%u,\"ts\":%.3f,"
                    "\"name\":\"",
                    key.rank, out_tid, static_cast<double>(last_ts) / 1e3);
      std::string line = buf;
      AppendJsonEscaped(&line, name_of(*open[i - 1], open[i - 1]->e.name));
      line += "\"}";
      emit(line);
    }
  }
  for (int32_t pid : pids_seen) {
    std::snprintf(buf, sizeof(buf),
                  "{\"ph\":\"M\",\"pid\":%d,\"tid\":0,"
                  "\"name\":\"process_name\",\"args\":{\"name\":\"rank %d\"}}",
                  pid, pid);
    emit(buf);
  }
  std::snprintf(buf, sizeof(buf),
                "\n],\"otherData\":{\"dropped_events\":%llu,\"ranks\":%zu}}\n",
                static_cast<unsigned long long>(dropped_total),
                pids_seen.size());
  out += buf;

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  size_t written = std::fwrite(out.data(), 1, out.size(), f);
  bool ok = written == out.size();
  ok = std::fclose(f) == 0 && ok;
  return ok;
}

bool WriteLocalTrace(const std::string& path) {
  Tracer& t = Tracer::Get();
  t.Disable();
  std::vector<std::vector<uint8_t>> blobs;
  blobs.push_back(t.SerializeRank(-1));
  return Tracer::WriteChromeTraceJson(path, blobs);
}

}  // namespace demsort::obs
