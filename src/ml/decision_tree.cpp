#include "ml/decision_tree.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <sstream>
#include <stdexcept>

namespace otac::ml {

namespace {

double gini(double positive, double total) noexcept {
  if (total <= 0.0) return 0.0;
  const double p = positive / total;
  return 2.0 * p * (1.0 - p);
}

}  // namespace

// Presort-partition CART (the classic presorted splitter, cf. sklearn's
// dense splitter and XGBoost's exact mode): each feature's rows are sorted
// ONCE per fit; when a node splits, every feature's segment is stably
// partitioned into the two children, so child segments stay sorted and
// find_best_split is a single linear scan per feature instead of an
// O(m log m) sort per feature per node.
//
// Entries carry (value, row, label) inline so the hot scans touch one
// contiguous array — the row-major Dataset is only consulted through the
// per-row side mask when a split is applied.
struct DecisionTree::PresortIndex {
  // 8 bytes: the label rides in the row index's high bit, and the weight
  // is not stored at all. The trainer's weights are uniform per class
  // (1.0, scaled by the §4.4.1 cost matrix for negatives), so the weight
  // and the positive mass are two-entry table lookups on the label bit —
  // bitwise the floats the branchy forms returned, so every double sum
  // keeps its operands and their order. Non-uniform weights (AdaBoost
  // reweighting) fall back to a row-indexed load from the dataset's weight
  // array. fit() is bound by partition and scan traffic over these
  // entries, so every dropped byte and mispredicted branch is throughput.
  struct Entry {
    float value;
    std::uint32_t row_and_label;  // bit 31 = label, bits 0..30 = row

    [[nodiscard]] std::uint32_t row() const noexcept {
      return row_and_label & 0x7FFFFFFFU;
    }
  };

  std::size_t rows = 0;
  std::vector<Entry> entries;          // num_features segments of `rows`
  std::vector<Entry> scratch;          // right-child staging for partition
  std::vector<std::uint8_t> goes_left; // per-row side mark of current split
  bool uniform_weights = true;         // weight is a function of the label
  float class_weight[2] = {0.0F, 0.0F};  // [label] when uniform_weights
  float positive_weight[2] = {0.0F, 0.0F};  // {0, class_weight[1]}
  const float* row_weights = nullptr;    // dataset weights (fallback path)

  /// The row's weight — exactly the float Dataset::weight(row) returns
  /// (the uniform path is only taken when every row of the class compared
  /// equal to the table entry, so the lookup is bitwise identical).
  [[nodiscard]] float weight_of(Entry e) const noexcept {
    return uniform_weights ? class_weight[e.row_and_label >> 31]
                           : row_weights[e.row()];
  }
  /// weight_of(e) when label == 1, else 0 — the positive-class mass term.
  [[nodiscard]] float positive_of(Entry e) const noexcept {
    if (uniform_weights) return positive_weight[e.row_and_label >> 31];
    return (e.row_and_label & 0x80000000U) != 0U ? row_weights[e.row()]
                                                 : 0.0F;
  }

  explicit PresortIndex(const Dataset& data)
      : rows(data.num_rows()),
        entries(data.num_features() * data.num_rows()),
        scratch(data.num_rows()),
        goes_left(data.num_rows()),
        row_weights(data.weights().data()) {
    // One pass to pack (row, label) words and detect per-class-uniform
    // weights (seen[] tracks which classes have fixed their table entry).
    std::vector<std::uint32_t> rowlab(rows);
    bool seen[2] = {false, false};
    for (std::size_t r = 0; r < rows; ++r) {
      const bool positive = data.label(r) == 1;
      rowlab[r] =
          static_cast<std::uint32_t>(r) | (positive ? 0x80000000U : 0U);
      const float w = data.weight(r);
      const std::size_t cls = positive ? 1 : 0;
      if (!seen[cls]) {
        seen[cls] = true;
        class_weight[cls] = w;
      } else if (w != class_weight[cls]) {
        uniform_weights = false;
      }
    }
    positive_weight[1] = class_weight[1];
    // LSD radix sort (3 passes of 11/11/10 bits over the order-preserving
    // float transform). Stable, so gathering in row order makes ties come
    // out row-ascending — the same deterministic (value, row) order a
    // comparison sort would produce — at a fraction of the comparison
    // sort's cost, which otherwise dominates fit() end to end. A pass whose
    // digit is the same for every key is a stable scatter into one bucket,
    // i.e. the identity, and is skipped: integer-valued features never
    // touch the low mantissa digit, and a constant feature skips all three.
    constexpr int kShift[3] = {0, 11, 22};
    std::uint32_t hist[3][2048];
    for (std::size_t f = 0; f < data.num_features(); ++f) {
      Entry* src = scratch.data();
      Entry* dst = entries.data() + f * rows;
      for (std::size_t r = 0; r < rows; ++r) {
        src[r] = Entry{data.value(r, f), rowlab[r]};
      }
      std::fill(&hist[0][0], &hist[0][0] + 3 * 2048, 0U);
      for (std::size_t r = 0; r < rows; ++r) {
        const std::uint32_t k = ordered_bits(src[r].value);
        ++hist[0][k & 2047U];
        ++hist[1][(k >> 11) & 2047U];
        ++hist[2][k >> 22];
      }
      const std::uint32_t first = ordered_bits(src[0].value);
      for (int p = 0; p < 3; ++p) {
        std::uint32_t* h = hist[p];
        if (h[(first >> kShift[p]) & 2047U] == rows) continue;
        std::uint32_t sum = 0;
        for (std::size_t b = 0; b < 2048; ++b) {
          const std::uint32_t count = h[b];
          h[b] = sum;
          sum += count;
        }
        for (std::size_t r = 0; r < rows; ++r) {
          const std::uint32_t k = ordered_bits(src[r].value);
          dst[h[(k >> kShift[p]) & 2047U]++] = src[r];
        }
        std::swap(src, dst);
      }
      if (src == scratch.data()) std::copy(src, src + rows, dst);
    }
  }

  /// Monotone bit pattern: u < v as floats iff ordered_bits(u) <
  /// ordered_bits(v) as unsigned ints (standard sign-flip transform).
  [[nodiscard]] static std::uint32_t ordered_bits(float v) noexcept {
    const auto u = std::bit_cast<std::uint32_t>(v);
    return u ^ ((u >> 31) != 0U ? 0xFFFFFFFFu : 0x80000000u);
  }

  [[nodiscard]] const Entry* segment(std::size_t feature,
                                     std::size_t begin) const {
    return entries.data() + feature * rows + begin;
  }

  /// Stably split [begin, begin+count) of every feature's segment by the
  /// side marks; left-child rows end up first, both halves stay sorted.
  void partition(std::size_t num_features, std::size_t begin,
                 std::size_t count) {
    for (std::size_t f = 0; f < num_features; ++f) {
      Entry* seg = entries.data() + f * rows + begin;
      std::size_t left = 0;
      std::size_t right = 0;
      // Branch-free: write each entry to both cursors and advance one by
      // the side bit. seg[left] is never ahead of the entry being read,
      // so in-place compaction is safe.
      for (std::size_t k = 0; k < count; ++k) {
        const Entry e = seg[k];
        const std::size_t side = goes_left[e.row()];
        seg[left] = e;
        scratch[right] = e;
        left += side;
        right += 1 - side;
      }
      std::copy(scratch.data(), scratch.data() + right, seg + left);
    }
  }
};

DecisionTree::SplitChoice DecisionTree::find_best_split(
    const Dataset& data, const PresortIndex& index, std::size_t begin,
    std::size_t count, Rng& feature_rng) const {
  SplitChoice best;
  const std::size_t d = data.num_features();
  if (d == 0 || count < 2) return best;

  // Optional feature subsampling (random forest mode).
  std::vector<std::size_t> features(d);
  std::iota(features.begin(), features.end(), 0);
  std::size_t consider = d;
  if (config_.max_features > 0 && config_.max_features < d) {
    consider = config_.max_features;
    for (std::size_t i = 0; i < consider; ++i) {
      const std::size_t j =
          i + feature_rng.next_below(static_cast<std::uint64_t>(d - i));
      std::swap(features[i], features[j]);
    }
  }

  double node_total = 0.0;
  double node_positive = 0.0;
  {
    const PresortIndex::Entry* seg = index.segment(0, begin);
    for (std::size_t k = 0; k < count; ++k) {
      node_total += static_cast<double>(index.weight_of(seg[k]));
      node_positive += static_cast<double>(index.positive_of(seg[k]));
    }
  }
  const double node_impurity = gini(node_positive, node_total);
  if (node_impurity <= 0.0) return best;  // pure node

  for (std::size_t fi = 0; fi < consider; ++fi) {
    const std::size_t f = features[fi];
    const PresortIndex::Entry* seg = index.segment(f, begin);
    // A constant-valued segment admits no cut (every adjacent pair is an
    // equal-value run), so the whole scan would fall through — skip it.
    // Sorted order makes the check O(1); deep nodes of the discretized
    // features (type, terminal, hour) hit this constantly.
    if (seg[0].value == seg[count - 1].value) continue;
    double left_total = 0.0;
    double left_positive = 0.0;
    for (std::size_t k = 0; k + 1 < count; ++k) {
      left_total += static_cast<double>(index.weight_of(seg[k]));
      left_positive += static_cast<double>(index.positive_of(seg[k]));
      const float value = seg[k].value;
      const float next_value = seg[k + 1].value;
      if (value == next_value) continue;  // no cut inside an equal-value run
      const double right_total = node_total - left_total;
      const double right_positive = node_positive - left_positive;
      if (left_total < config_.min_child_weight ||
          right_total < config_.min_child_weight) {
        continue;
      }
      const double weighted_child_impurity =
          (left_total * gini(left_positive, left_total) +
           right_total * gini(right_positive, right_total)) /
          node_total;
      const double relative_gain = node_impurity - weighted_child_impurity;
      // Mass-weighted gain: ranks splits of large nodes above equally
      // impressive splits of tiny nodes (standard CART importance, and the
      // right priority for best-first growth under a split budget).
      const double gain = relative_gain * node_total;
      if (gain > best.gain && relative_gain >= config_.min_impurity_decrease) {
        best.feature = f;
        // Midpoint threshold: robust to unseen values between the cut pair.
        best.threshold = value + (next_value - value) * 0.5F;
        best.gain = gain;
        best.valid = true;
      }
    }
  }
  return best;
}

void DecisionTree::fit(const Dataset& data) {
  if (data.empty()) throw std::invalid_argument("DecisionTree: empty data");
  nodes_.clear();
  importance_.assign(data.num_features(), 0.0);
  splits_ = 0;
  height_ = 0;

  Rng feature_rng{config_.feature_subsample_seed};
  PresortIndex index{data};
  const std::size_t n = data.num_rows();
  const std::size_t d = data.num_features();

  struct Candidate {
    double gain;
    std::int32_t node;
    SplitChoice split;
    std::size_t begin;
    std::size_t count;

    bool operator<(const Candidate& other) const noexcept {
      return gain < other.gain;  // max-heap on gain
    }
  };

  const auto node_probability = [&](std::size_t begin, std::size_t count) {
    double total = 0.0;
    double positive = 0.0;
    // All feature segments hold the same row set; walk feature 0's (or row
    // ids directly for the featureless degenerate case, where only the
    // root exists and its segment is the whole dataset).
    if (d > 0) {
      const PresortIndex::Entry* seg = index.segment(0, begin);
      for (std::size_t k = 0; k < count; ++k) {
        total += static_cast<double>(index.weight_of(seg[k]));
        positive += static_cast<double>(index.positive_of(seg[k]));
      }
    } else {
      for (std::size_t k = 0; k < count; ++k) {
        const std::size_t r = begin + k;
        total += static_cast<double>(data.weight(r));
        if (data.label(r) == 1) positive += static_cast<double>(data.weight(r));
      }
    }
    return total > 0.0 ? static_cast<float>(positive / total) : 0.0F;
  };

  // Max-heap kept by push_heap/pop_heap: pop moves the winner to the back
  // where it can be *moved from* legally (std::priority_queue::top only
  // exposes a const reference, which the old code const_cast around).
  std::vector<Candidate> frontier;

  const auto make_leaf = [&](std::size_t begin, std::size_t count,
                             std::uint32_t depth) {
    Node node;
    node.probability = node_probability(begin, count);
    node.depth = depth;
    nodes_.push_back(node);
    height_ = std::max<std::size_t>(height_, depth);
    return static_cast<std::int32_t>(nodes_.size() - 1);
  };

  const auto consider_split = [&](std::int32_t node_id, std::size_t begin,
                                  std::size_t count) {
    if (nodes_[static_cast<std::size_t>(node_id)].depth >= config_.max_depth) {
      return;
    }
    const SplitChoice split =
        find_best_split(data, index, begin, count, feature_rng);
    if (split.valid) {
      frontier.push_back(Candidate{split.gain, node_id, split, begin, count});
      std::push_heap(frontier.begin(), frontier.end());
    }
  };

  const std::int32_t root = make_leaf(0, n, 0);
  consider_split(root, 0, n);

  while (!frontier.empty() && splits_ < config_.max_splits) {
    std::pop_heap(frontier.begin(), frontier.end());
    const Candidate cand = frontier.back();
    frontier.pop_back();

    // Mark sides off the *split feature's* segment — its values are inline
    // and sorted — then stably partition every feature's segment so both
    // children keep presorted order.
    std::size_t left_count = 0;
    {
      const PresortIndex::Entry* seg =
          index.segment(cand.split.feature, cand.begin);
      for (std::size_t k = 0; k < cand.count; ++k) {
        const bool left = seg[k].value <= cand.split.threshold;
        index.goes_left[seg[k].row()] = left ? 1 : 0;
        left_count += left ? 1 : 0;
      }
    }
    if (left_count == 0 || left_count == cand.count) continue;  // degenerate
    index.partition(d, cand.begin, cand.count);

    Node& parent = nodes_[static_cast<std::size_t>(cand.node)];
    parent.feature = static_cast<std::int32_t>(cand.split.feature);
    parent.threshold = cand.split.threshold;
    const std::uint32_t child_depth = parent.depth + 1;
    const std::int32_t left_id =
        make_leaf(cand.begin, left_count, child_depth);
    const std::int32_t right_id = make_leaf(
        cand.begin + left_count, cand.count - left_count, child_depth);
    // make_leaf may reallocate nodes_; re-reference the parent.
    nodes_[static_cast<std::size_t>(cand.node)].left = left_id;
    nodes_[static_cast<std::size_t>(cand.node)].right = right_id;

    importance_[cand.split.feature] += cand.split.gain;
    ++splits_;

    consider_split(left_id, cand.begin, left_count);
    consider_split(right_id, cand.begin + left_count,
                   cand.count - left_count);
  }
}

double DecisionTree::predict_proba(std::span<const float> features) const {
  if (nodes_.empty()) throw std::logic_error("DecisionTree: not fitted");
  std::size_t node = 0;
  while (nodes_[node].feature >= 0) {
    const auto f = static_cast<std::size_t>(nodes_[node].feature);
    if (f >= features.size()) {
      throw std::invalid_argument("DecisionTree: feature arity mismatch");
    }
    node = static_cast<std::size_t>(features[f] <= nodes_[node].threshold
                                        ? nodes_[node].left
                                        : nodes_[node].right);
  }
  return nodes_[node].probability;
}

std::size_t DecisionTree::decision_path_length(
    std::span<const float> features) const {
  if (nodes_.empty()) throw std::logic_error("DecisionTree: not fitted");
  std::size_t node = 0;
  std::size_t comparisons = 0;
  while (nodes_[node].feature >= 0) {
    ++comparisons;
    const auto f = static_cast<std::size_t>(nodes_[node].feature);
    node = static_cast<std::size_t>(features[f] <= nodes_[node].threshold
                                        ? nodes_[node].left
                                        : nodes_[node].right);
  }
  return comparisons;
}

std::string DecisionTree::serialize() const {
  std::ostringstream out;
  out.precision(9);
  out << "otac-dtree 1 " << nodes_.size() << ' ' << splits_ << ' ' << height_
      << ' ' << importance_.size() << '\n';
  for (const Node& node : nodes_) {
    out << node.feature << ' ' << node.threshold << ' ' << node.left << ' '
        << node.right << ' ' << node.probability << ' ' << node.depth << '\n';
  }
  for (const double gain : importance_) out << gain << ' ';
  out << '\n';
  return out.str();
}

DecisionTree DecisionTree::deserialize(const std::string& blob) {
  std::istringstream in{blob};
  std::string magic;
  int version = 0;
  std::size_t node_count = 0;
  std::size_t splits = 0;
  std::size_t height = 0;
  std::size_t feature_count = 0;
  in >> magic >> version >> node_count >> splits >> height >> feature_count;
  if (!in || magic != "otac-dtree" || version != 1) {
    throw std::invalid_argument("DecisionTree: bad serialization header");
  }
  // Bound the declared sizes against the blob before resizing: every node
  // line and importance entry needs at least two bytes of text, so counts
  // beyond blob.size() are corrupt headers, not big trees. This keeps a
  // flipped count byte from turning into an attacker-chosen allocation.
  if (node_count == 0 || node_count > blob.size() ||
      feature_count > blob.size()) {
    throw std::invalid_argument("DecisionTree: implausible header counts");
  }
  if (splits >= node_count || height >= node_count) {
    throw std::invalid_argument("DecisionTree: inconsistent header counts");
  }
  DecisionTree tree;
  tree.splits_ = splits;
  tree.height_ = height;
  tree.nodes_.resize(node_count);
  for (Node& node : tree.nodes_) {
    in >> node.feature >> node.threshold >> node.left >> node.right >>
        node.probability >> node.depth;
  }
  tree.importance_.resize(feature_count);
  for (double& gain : tree.importance_) in >> gain;
  if (!in) throw std::invalid_argument("DecisionTree: truncated blob");
  // Structural validation. Children must point strictly forward (our
  // builder always appends children after the parent), which rules out
  // cycles and guarantees predict() terminates; features must exist; all
  // floats must be finite with probabilities in [0, 1].
  for (std::size_t i = 0; i < node_count; ++i) {
    const Node& node = tree.nodes_[i];
    if (!std::isfinite(node.probability) || node.probability < 0.0F ||
        node.probability > 1.0F) {
      throw std::invalid_argument("DecisionTree: invalid node probability");
    }
    if (node.depth >= node_count) {
      throw std::invalid_argument("DecisionTree: invalid node depth");
    }
    if (node.feature < 0) {
      if (node.feature != -1 || node.left != -1 || node.right != -1) {
        throw std::invalid_argument("DecisionTree: malformed leaf");
      }
      continue;
    }
    if (static_cast<std::size_t>(node.feature) >= feature_count) {
      throw std::invalid_argument("DecisionTree: feature id out of range");
    }
    if (!std::isfinite(node.threshold)) {
      throw std::invalid_argument("DecisionTree: non-finite threshold");
    }
    const bool forward =
        node.left > static_cast<std::int32_t>(i) &&
        node.right > static_cast<std::int32_t>(i) &&
        static_cast<std::size_t>(node.left) < node_count &&
        static_cast<std::size_t>(node.right) < node_count;
    if (!forward) {
      throw std::invalid_argument("DecisionTree: invalid child index");
    }
  }
  for (const double gain : tree.importance_) {
    if (!std::isfinite(gain) || gain < 0.0) {
      throw std::invalid_argument("DecisionTree: invalid importance");
    }
  }
  return tree;
}

std::string DecisionTree::to_text(
    const std::vector<std::string>& feature_names) const {
  std::ostringstream out;
  if (nodes_.empty()) return "(unfitted)\n";
  std::vector<std::pair<std::size_t, std::string>> stack{{0, ""}};
  while (!stack.empty()) {
    const auto [id, indent] = stack.back();
    stack.pop_back();
    const Node& node = nodes_[id];
    if (node.feature < 0) {
      out << indent << "leaf p(one-time)=" << node.probability << "\n";
      continue;
    }
    const auto f = static_cast<std::size_t>(node.feature);
    const std::string label =
        f < feature_names.size() ? feature_names[f]
                                : std::string{"f"}.append(std::to_string(f));
    out << indent << label << " <= " << node.threshold << " ?\n";
    stack.emplace_back(static_cast<std::size_t>(node.right), indent + "  ");
    stack.emplace_back(static_cast<std::size_t>(node.left), indent + "  ");
  }
  return out.str();
}

}  // namespace otac::ml
