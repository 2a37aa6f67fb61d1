// Tournament (loser) tree for k-way merging of records in O(log k) integer
// comparisons per element. Ties are broken by source index, which makes
// merging stable across sources and realizes the (key, sequence, position)
// total order the selection algorithms rely on.
//
// Keyed nodes: every node caches its loser's 64-bit key prefix
// (RecordTraits<R>::KeyPrefix, core/record.h) and tie-break rank, and every
// source holds a pointer to its current head record. A replay compares
// integers in the node array; it reads a record only when two prefixes tie
// on a type whose prefix is not the whole key, and it never copies one (the
// fixed-length form of Bingmann's LCP-aware loser tree).
//
// Sentinel sources: an exhausted source points at a RecordTraits<R>::
// MaxSentinel record and takes rank k_pad + s instead of s. A real record
// EQUAL to the sentinel still wins, because exhausted ranks sort past every
// live one, so the hot compare has no exhausted branch.
//
// Pointer lifetime: a source's head pointer must stay valid while it is that
// source's head. The winner's head is read by no replay, so a caller may
// release the memory behind it right before ReplaceWinner or ExhaustWinner.
#ifndef DEMSORT_PAR_LOSER_TREE_H_
#define DEMSORT_PAR_LOSER_TREE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "core/record.h"
#include "util/logging.h"

namespace demsort::par {

template <typename R>
class LoserTree {
 public:
  explicit LoserTree(size_t num_sources) : k_(num_sources) {
    DEMSORT_CHECK_GT(k_, 0u);
    k_pad_ = 1;
    while (k_pad_ < k_) k_pad_ <<= 1;
    head_.assign(k_pad_, &sentinel_);
    tree_.resize(k_pad_);
  }

  LoserTree(const LoserTree&) = delete;
  LoserTree& operator=(const LoserTree&) = delete;

  /// Sources not yet exhausted.
  size_t live() const { return live_; }
  bool Empty() const { return live_ == 0; }
  bool IsLive(size_t s) const { return head_[s] != &sentinel_; }

  /// Points source s at its first record (call once per non-empty source,
  /// before Build). Sources not initialized start exhausted.
  void InitSource(size_t s, const R* head) {
    DEMSORT_CHECK_LT(s, k_);
    DEMSORT_CHECK(!built_);
    if (!IsLive(s)) ++live_;
    head_[s] = head;
  }

  void Build() {
    DEMSORT_CHECK(!built_);
    built_ = true;
    tree_[0] = BuildSubtree(1);
  }

  /// The source holding the smallest head.
  size_t WinnerSource() const { return tree_[0].rank & (k_pad_ - 1); }
  const R& Winner() const { return *head_[WinnerSource()]; }
  /// Source s's current head (the sentinel once s is exhausted).
  const R& Head(size_t s) const { return *head_[s]; }

  /// Advances the winner's source to `next` and replays its path.
  void ReplaceWinner(const R* next) {
    const size_t w = WinnerSource();
    head_[w] = next;
    Replay({Traits::KeyPrefix(*next), w});
  }

  /// Exhausts the winner's source and replays its path.
  void ExhaustWinner() {
    const size_t w = WinnerSource();
    DEMSORT_CHECK(IsLive(w));
    head_[w] = &sentinel_;
    --live_;
    Replay({sentinel_key_, k_pad_ + w});
  }

  /// Source holding the second-smallest head. Requires live() >= 2. It lost
  /// directly to the winner, so it sits on the winner's path: one O(log k)
  /// walk over the cached nodes finds it.
  size_t RunnerUpSource() const {
    DEMSORT_CHECK_GE(live_, 2u);
    const Node* best = nullptr;
    for (size_t node = (k_pad_ + WinnerSource()) >> 1; node >= 1;
         node >>= 1) {
      if (best == nullptr || Beats(tree_[node], *best)) best = &tree_[node];
    }
    return best->rank & (k_pad_ - 1);
  }

 private:
  using Traits = core::RecordTraits<R>;

  /// A source's standing: its head's key prefix, and its tie-break rank —
  /// s while live, k_pad + s once exhausted (the source is rank mod k_pad).
  struct Node {
    uint64_t key;
    size_t rank;
  };

  /// True if a's head strictly precedes b's: prefix, then (when the prefix
  /// is not the whole key) the records themselves, then rank.
  bool Beats(const Node& a, const Node& b) const {
    if (a.key != b.key) return a.key < b.key;
    if constexpr (!Traits::kPrefixIsKey) {
      const R& ra = *head_[a.rank & (k_pad_ - 1)];
      const R& rb = *head_[b.rank & (k_pad_ - 1)];
      typename Traits::Less less;
      if (less(ra, rb)) return true;
      if (less(rb, ra)) return false;
    }
    return a.rank < b.rank;
  }

  /// Plays the subtree under `node`, leaving losers in it; returns the
  /// winner.
  Node BuildSubtree(size_t node) {
    if (node >= k_pad_) {
      const size_t s = node - k_pad_;
      return IsLive(s) ? Node{Traits::KeyPrefix(*head_[s]), s}
                       : Node{sentinel_key_, k_pad_ + s};
    }
    Node w1 = BuildSubtree(2 * node);
    Node w2 = BuildSubtree(2 * node + 1);
    if (Beats(w1, w2)) {
      tree_[node] = w2;
      return w1;
    }
    tree_[node] = w1;
    return w2;
  }

  /// Replays the path from `current`'s leaf to the root.
  void Replay(Node current) {
    for (size_t node = (k_pad_ + (current.rank & (k_pad_ - 1))) >> 1;
         node >= 1; node >>= 1) {
      if (Beats(tree_[node], current)) std::swap(tree_[node], current);
    }
    tree_[0] = current;
  }

  const R sentinel_ = Traits::MaxSentinel();
  const uint64_t sentinel_key_ = Traits::KeyPrefix(sentinel_);
  size_t k_;
  size_t k_pad_;
  bool built_ = false;
  size_t live_ = 0;
  std::vector<const R*> head_;
  std::vector<Node> tree_;  // tree_[0] = winner, 1..k_pad-1 = losers
};

}  // namespace demsort::par

#endif  // DEMSORT_PAR_LOSER_TREE_H_
