// Piece selection policies (Section VIII-A, family H).
//
// Whenever an uploader (peer or fixed seed) contacts a target it can help,
// a policy chooses which useful piece to transfer. Theorem 14 says the
// stability region is the same for every policy in H — the only
// requirement is *usefulness*: if a useful piece exists, a useful piece is
// sent. The policies here let the benches verify that insensitivity and
// compare quasi-stability lifetimes.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "rand/rng.hpp"
#include "util/piece_set.hpp"

namespace p2p {

/// Read-only snapshot of swarm-wide piece availability, for policies that
/// estimate rarity (the paper allows selection to depend on the full
/// network state).
struct SwarmView {
  int num_pieces = 0;
  /// holders[i] = number of peers currently holding piece i.
  std::span<const std::int64_t> holders;
  std::int64_t total_peers = 0;
};

/// The built-in policies as a value type, so option structs and sweep
/// scenarios can carry a selection policy without owning a polymorphic
/// object.
enum class PolicyKind {
  kRandomUseful,
  kRarestFirst,
  kMostCommonFirst,
  kSequential,
};

class PieceSelectionPolicy {
 public:
  virtual ~PieceSelectionPolicy() = default;

  /// Chooses a piece from `useful` (never empty) to upload to a peer
  /// currently holding `target_has`. Must return a member of `useful`.
  virtual int select(PieceSet useful, PieceSet target_has,
                     const SwarmView& view, Rng& rng) = 0;

  virtual PolicyKind kind() const = 0;
};

/// Uniformly random useful piece — the baseline policy of Theorem 1.
class RandomUsefulPolicy final : public PieceSelectionPolicy {
 public:
  int select(PieceSet useful, PieceSet, const SwarmView&, Rng& rng) override {
    return useful.nth(static_cast<int>(
        rng.uniform_int(static_cast<std::uint64_t>(useful.size()))));
  }
  PolicyKind kind() const override { return PolicyKind::kRandomUseful; }
};

/// Globally rarest useful piece (ties broken uniformly) — an idealized
/// rarest-piece selection with perfect availability information.
class RarestFirstPolicy final : public PieceSelectionPolicy {
 public:
  int select(PieceSet useful, PieceSet, const SwarmView& view,
             Rng& rng) override;
  PolicyKind kind() const override { return PolicyKind::kRarestFirst; }
};

/// Most common useful piece — the adversarial counterpart of
/// RarestFirstPolicy; still in H, so still the same stability region.
class MostCommonFirstPolicy final : public PieceSelectionPolicy {
 public:
  int select(PieceSet useful, PieceSet, const SwarmView& view,
             Rng& rng) override;
  PolicyKind kind() const override {
    return PolicyKind::kMostCommonFirst;
  }
};

/// Lowest-indexed useful piece ("in-order streaming"); deterministic.
class SequentialPolicy final : public PieceSelectionPolicy {
 public:
  int select(PieceSet useful, PieceSet, const SwarmView&, Rng&) override {
    return useful.lowest();
  }
  PolicyKind kind() const override { return PolicyKind::kSequential; }
};

/// One row of the policy vocabulary: the token reports, the phase
/// ingester and the factory use, and the short alias the command-line
/// tools also accept.
struct PolicyName {
  PolicyKind kind;
  const char* token;
  const char* alias;
};

/// Every built-in policy, in PolicyKind order.
std::span<const PolicyName> policy_names();

/// The report token of a kind ("random-useful", ...).
const char* to_string(PolicyKind kind);

/// Either spelling of a policy -> its kind; nullopt for no such policy.
std::optional<PolicyKind> parse_policy(std::string_view name);

/// Every accepted spelling, "random-useful|random, ...", for usage text.
std::string policy_spellings();

/// The rejection message for a name parse_policy refused: echoes the
/// name and lists every valid spelling.
std::string unknown_policy_message(std::string_view name);

std::unique_ptr<PieceSelectionPolicy> make_policy(PolicyKind kind);

}  // namespace p2p
