// The shared model slot of the sharded serving layer: worker threads load
// a snapshot once per retrain epoch, the trainer publishes a new compiled
// tree at retrain barriers.
//
// Design: a two-generation seqlock over the CompiledTree word codec
// (ml/compiled_tree.h). Publish k writes generation k & 1, so a publish
// never overwrites the generation the previous publish exposed — a reader
// that overlaps one publish still decodes the other, intact generation and
// only retries when a *second* publish lands mid-read. Readers are
// wait-free in practice: publishes happen once per retrain barrier, reads
// once per shard per epoch.
//
// Why not std::atomic<std::shared_ptr<...>> (the seed design)? libstdc++
// (12) implements it with an internal spinlock that load() releases with
// memory_order_relaxed, so the reader's plain read of the pointer field has
// no release/acquire chain to the next writer's plain write — a data race
// by the letter of the memory model, and ThreadSanitizer reports it as
// such. Here every shared access is a std::atomic operation, so the slot is
// provably clean under TSan (`scripts/ci.sh concurrency` is the gate, and
// tests/core/sharded_stress_test.cpp hammers concurrent load/store).
//
// Memory-ordering argument (the seqlock correctness proof, DESIGN.md §12):
//   writer (under writer_mutex_):  begin_.store(next, relaxed);
//                                  atomic_thread_fence(release);
//                                  relaxed word stores to words_[next & 1];
//                                  end_.store(next, release);
//   reader:                        s = end_.load(acquire);        // (1)
//                                  relaxed word loads of words_[s & 1];
//                                  atomic_thread_fence(acquire);  // (2)
//                                  valid iff begin_.load(relaxed) <= s + 1
// (1) synchronizes with publish s's end_ release store, so generation
// s & 1 as written by publish s is fully visible. The only writes that can
// tear it belong to publish s + 2 (same generation); that publisher stores
// begin_ = s + 2 *before* its release fence, which precedes its word
// stores. If any word load observed such a store, the release-fence /
// acquire-fence pair (2) forces the begin_ load to observe >= s + 2 and
// the reader retries. begin_ == s + 1 is harmless: publish s + 1 writes
// the other generation.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
#include <stdexcept>

#include "ml/compiled_tree.h"

namespace otac {

class ModelSlot {
 public:
  /// Generation capacity in tree nodes — 16x the largest tree any ablation
  /// fits (the paper's budget is 30 splits = 61 nodes).
  static constexpr std::size_t kMaxNodes = 1024;
  static constexpr std::size_t kWords =
      ml::CompiledTree::kHeaderWords +
      ml::CompiledTree::kWordsPerNode * kMaxNodes;

  [[nodiscard]] static bool fits(const ml::CompiledTree& tree) noexcept {
    return tree.node_count() <= kMaxNodes;
  }

  /// Publish a new model. Throws std::length_error when the tree exceeds
  /// the slot capacity (callers gate with fits() and count a rejected
  /// model instead). Safe against concurrent load() and store().
  void store(const ml::CompiledTree& tree) {
    if (!fits(tree) || tree.node_count() == 0) {
      throw std::length_error("ModelSlot: tree does not fit the slot");
    }
    std::array<std::uint32_t, kWords> staged;
    const std::size_t count = tree.word_count();
    tree.encode_words(std::span{staged.data(), count});

    const std::lock_guard<std::mutex> lock(writer_mutex_);
    const std::uint64_t next = end_.load(std::memory_order_relaxed) + 1;
    begin_.store(next, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    auto& gen = words_[next & 1];
    for (std::size_t w = 0; w < count; ++w) {
      gen[w].store(staged[w], std::memory_order_relaxed);
    }
    end_.store(next, std::memory_order_release);
  }

  /// Snapshot the current model into `out` (reusing its capacity).
  /// Returns false when nothing has been published yet. Wait-free unless a
  /// publish to the generation being read lands mid-copy, which retries.
  [[nodiscard]] bool load(ml::CompiledTree& out) const {
    std::array<std::uint32_t, kWords> staged;
    // Seqlock read loop: bounded by publisher progress (a retry happens
    // only when a publish landed mid-copy), not by an attempt budget.
    // otac-lint: allow(bounded-retry)
    for (;;) {
      const std::uint64_t s = end_.load(std::memory_order_acquire);
      if (s == 0) return false;
      const auto& gen = words_[s & 1];
      const std::uint32_t nodes = gen[0].load(std::memory_order_relaxed);
      const std::size_t count =
          ml::CompiledTree::kHeaderWords +
          ml::CompiledTree::kWordsPerNode *
              std::min<std::size_t>(nodes, kMaxNodes);
      for (std::size_t w = 0; w < count; ++w) {
        staged[w] = gen[w].load(std::memory_order_relaxed);
      }
      std::atomic_thread_fence(std::memory_order_acquire);
      if (begin_.load(std::memory_order_relaxed) <= s + 1) {
        return ml::CompiledTree::decode_words(std::span{staged.data(), count},
                                              out);
      }
    }
  }

  /// Number of completed publishes (diagnostics/tests).
  [[nodiscard]] std::uint64_t publish_count() const noexcept {
    return end_.load(std::memory_order_acquire);
  }

 private:
  std::mutex writer_mutex_;  // serializes publishers only
  std::atomic<std::uint64_t> begin_{0};  // last publish announced
  std::atomic<std::uint64_t> end_{0};    // last publish completed
  std::array<std::array<std::atomic<std::uint32_t>, kWords>, 2> words_{};
};

}  // namespace otac
