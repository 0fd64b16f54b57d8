#include "sim/policy.hpp"

#include <limits>

namespace p2p {

namespace {

/// The one spelling table of the built-in policies.
constexpr PolicyName kPolicyNames[] = {
    {PolicyKind::kRandomUseful, "random-useful", "random"},
    {PolicyKind::kRarestFirst, "rarest-first", "rarest"},
    {PolicyKind::kMostCommonFirst, "most-common-first", "mostcommon"},
    {PolicyKind::kSequential, "sequential", "sequential"},
};

/// Picks a uniformly random piece among those in `useful` whose holder
/// count is extremal (min if `want_min`, else max).
int extremal_pick(PieceSet useful, const SwarmView& view, Rng& rng,
                  bool want_min) {
  std::int64_t best = want_min ? std::numeric_limits<std::int64_t>::max()
                               : std::numeric_limits<std::int64_t>::min();
  int chosen = -1;
  int ties = 0;
  for (int piece : useful) {
    const std::int64_t holders = view.holders[piece];
    const bool better = want_min ? holders < best : holders > best;
    if (better) {
      best = holders;
      chosen = piece;
      ties = 1;
    } else if (holders == best) {
      // Reservoir-sample among ties.
      ++ties;
      if (rng.uniform_int(static_cast<std::uint64_t>(ties)) == 0) {
        chosen = piece;
      }
    }
  }
  P2P_ASSERT(chosen >= 0);
  return chosen;
}

}  // namespace

int RarestFirstPolicy::select(PieceSet useful, PieceSet,
                              const SwarmView& view, Rng& rng) {
  return extremal_pick(useful, view, rng, /*want_min=*/true);
}

int MostCommonFirstPolicy::select(PieceSet useful, PieceSet,
                                  const SwarmView& view, Rng& rng) {
  return extremal_pick(useful, view, rng, /*want_min=*/false);
}

std::span<const PolicyName> policy_names() { return kPolicyNames; }

const char* to_string(PolicyKind kind) {
  for (const PolicyName& p : kPolicyNames) {
    if (p.kind == kind) return p.token;
  }
  P2P_ASSERT_MSG(false, "unknown piece selection policy");
  return nullptr;
}

std::optional<PolicyKind> parse_policy(std::string_view name) {
  for (const PolicyName& p : kPolicyNames) {
    if (name == p.token || name == p.alias) return p.kind;
  }
  return std::nullopt;
}

std::string policy_spellings() {
  std::string out;
  for (const PolicyName& p : kPolicyNames) {
    if (!out.empty()) out += ", ";
    out += p.token;
    if (std::string_view(p.alias) != p.token) {
      out += '|';
      out += p.alias;
    }
  }
  return out;
}

std::string unknown_policy_message(std::string_view name) {
  return "unknown policy \"" + std::string(name) +
         "\" (valid: " + policy_spellings() + ")";
}

std::unique_ptr<PieceSelectionPolicy> make_policy(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kRandomUseful:
      return std::make_unique<RandomUsefulPolicy>();
    case PolicyKind::kRarestFirst:
      return std::make_unique<RarestFirstPolicy>();
    case PolicyKind::kMostCommonFirst:
      return std::make_unique<MostCommonFirstPolicy>();
    case PolicyKind::kSequential:
      return std::make_unique<SequentialPolicy>();
  }
  P2P_ASSERT_MSG(false, "unknown piece selection policy");
  return nullptr;
}

}  // namespace p2p
