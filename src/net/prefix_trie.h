// Longest-prefix-match radix trie mapping CIDR prefixes to values.
//
// Used for routed-block lookups and origin-AS attribution: the analyses in
// §3 and §6 aggregate amplifier and victim IPs at the routed-block and AS
// levels, which requires longest-prefix matching over the synthetic registry.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>

#include "net/ipv4.h"

namespace gorilla::net {

/// Binary (one bit per level) path-walked trie. Insertion is O(prefix
/// length); lookup walks at most 32 nodes. Values are stored by copy.
template <typename T>
class PrefixTrie {
 public:
  PrefixTrie() : root_(std::make_unique<Node>()) {}

  /// Inserts or replaces the value at an exact prefix.
  void insert(const Prefix& prefix, T value) {
    Node* node = root_.get();
    const std::uint32_t bits = prefix.base().value();
    for (int depth = 0; depth < prefix.length(); ++depth) {
      const int bit = (bits >> (31 - depth)) & 1;
      auto& child = node->children[bit];
      if (!child) child = std::make_unique<Node>();
      node = child.get();
    }
    if (!node->value.has_value()) ++size_;
    node->value = std::move(value);
  }

  /// Longest-prefix match; nullopt when no covering prefix exists.
  [[nodiscard]] std::optional<T> lookup(Ipv4Address addr) const {
    const Node* node = root_.get();
    std::optional<T> best = node->value;
    const std::uint32_t bits = addr.value();
    for (int depth = 0; depth < 32 && node; ++depth) {
      const int bit = (bits >> (31 - depth)) & 1;
      node = node->children[bit].get();
      if (node && node->value.has_value()) best = node->value;
    }
    return best;
  }

  /// Number of distinct prefixes stored.
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

 private:
  struct Node {
    std::optional<T> value;
    std::unique_ptr<Node> children[2];
  };

  std::unique_ptr<Node> root_;
  std::size_t size_ = 0;
};

}  // namespace gorilla::net
