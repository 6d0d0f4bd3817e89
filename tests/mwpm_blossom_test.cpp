// Tests for the exact blossom matcher:
//
//   - property tests against exhaustive bitmask-DP minimum-weight perfect
//     matching on random complete graphs;
//   - an exact-replica oracle: FrozenBlossom below is a test-local copy of
//     the original matcher (nested vectors, no slack cache, one allocation
//     per solve). The optimised matcher must return the identical mate
//     vector, not just an equal weight, because equal-weight matchings
//     give different corrections and the decoder outputs are pinned;
//   - FNV-1a digests of mwpm and windowed-mwpm corrections over a seeded
//     (distance x p) grid, captured from the original matcher.
#include "mwpm/blossom.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "decoder/registry.hpp"
#include "mwpm/mwpm_decoder.hpp"
#include "noise/phenomenological.hpp"
#include "stream/trace.hpp"
#include "surface_code/planar_lattice.hpp"

namespace qec {
namespace {

// Exhaustive min-weight perfect matching over all pairings (DP over subsets).
std::int64_t brute_force_min(const std::vector<std::vector<std::int64_t>>& w) {
  const int n = static_cast<int>(w.size());
  const std::size_t full = std::size_t{1} << n;
  constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max() / 4;
  std::vector<std::int64_t> dp(full, kInf);
  dp[0] = 0;
  for (std::size_t mask = 0; mask < full; ++mask) {
    if (dp[mask] == kInf) continue;
    int first = -1;
    for (int i = 0; i < n; ++i) {
      if (!(mask & (std::size_t{1} << i))) {
        first = i;
        break;
      }
    }
    if (first < 0) continue;
    for (int j = first + 1; j < n; ++j) {
      if (mask & (std::size_t{1} << j)) continue;
      const std::size_t next =
          mask | (std::size_t{1} << first) | (std::size_t{1} << j);
      const std::int64_t cand = dp[mask] + w[static_cast<std::size_t>(first)]
                                            [static_cast<std::size_t>(j)];
      if (cand < dp[next]) dp[next] = cand;
    }
  }
  return dp[full - 1];
}

std::vector<std::vector<std::int64_t>> random_weights(int n, std::int64_t maxw,
                                                      Xoshiro256ss& rng) {
  std::vector<std::vector<std::int64_t>> w(
      static_cast<std::size_t>(n),
      std::vector<std::int64_t>(static_cast<std::size_t>(n), 0));
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      const auto v = static_cast<std::int64_t>(
          rng.below(static_cast<std::uint64_t>(maxw) + 1));
      w[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] = v;
      w[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)] = v;
    }
  }
  return w;
}

/// Loads `w` into a matcher (any class with set_weight).
template <class Matcher>
void load(Matcher& matcher, const std::vector<std::vector<std::int64_t>>& w) {
  const int n = static_cast<int>(w.size());
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      matcher.set_weight(i, j, w[static_cast<std::size_t>(i)]
                                  [static_cast<std::size_t>(j)]);
    }
  }
}

std::int64_t run_blossom(const std::vector<std::vector<std::int64_t>>& w,
                         std::vector<int>* mate_out = nullptr) {
  BlossomMatcher matcher(static_cast<int>(w.size()));
  load(matcher, w);
  const std::vector<int>& mate = matcher.solve();
  if (mate_out) *mate_out = mate;
  return matcher.matching_weight();
}

TEST(Blossom, TwoVertices) {
  BlossomMatcher matcher(2);
  matcher.set_weight(0, 1, 7);
  const auto mate = matcher.solve();
  EXPECT_EQ(mate[0], 1);
  EXPECT_EQ(mate[1], 0);
  EXPECT_EQ(matcher.matching_weight(), 7);
}

TEST(Blossom, FourVerticesPicksCheaperPairing) {
  // Pairing (0-1)(2-3) costs 2; any other pairing costs >= 20.
  BlossomMatcher matcher(4);
  matcher.set_weight(0, 1, 1);
  matcher.set_weight(2, 3, 1);
  matcher.set_weight(0, 2, 10);
  matcher.set_weight(0, 3, 10);
  matcher.set_weight(1, 2, 10);
  matcher.set_weight(1, 3, 10);
  const auto mate = matcher.solve();
  EXPECT_EQ(mate[0], 1);
  EXPECT_EQ(mate[2], 3);
  EXPECT_EQ(matcher.matching_weight(), 2);
}

TEST(Blossom, ZeroWeightEdgesAllowed) {
  BlossomMatcher matcher(4);
  matcher.set_weight(0, 1, 0);
  matcher.set_weight(2, 3, 0);
  matcher.set_weight(0, 2, 5);
  matcher.set_weight(0, 3, 5);
  matcher.set_weight(1, 2, 5);
  matcher.set_weight(1, 3, 5);
  matcher.solve();
  EXPECT_EQ(matcher.matching_weight(), 0);
}

TEST(Blossom, MatchingIsAlwaysPerfectAndSymmetric) {
  Xoshiro256ss rng(123);
  for (int trial = 0; trial < 50; ++trial) {
    const int n = 2 * (1 + static_cast<int>(rng.below(6)));  // 2..12
    const auto w = random_weights(n, 30, rng);
    std::vector<int> mate;
    run_blossom(w, &mate);
    for (int v = 0; v < n; ++v) {
      ASSERT_GE(mate[static_cast<std::size_t>(v)], 0) << "unmatched vertex";
      ASSERT_EQ(mate[static_cast<std::size_t>(
                    mate[static_cast<std::size_t>(v)])],
                v)
          << "mate not symmetric";
      ASSERT_NE(mate[static_cast<std::size_t>(v)], v);
    }
  }
}

struct BruteForceCase {
  int n;
  std::int64_t max_weight;
  int trials;
};

class BlossomVsBruteForce : public ::testing::TestWithParam<BruteForceCase> {};

TEST_P(BlossomVsBruteForce, WeightsAgree) {
  const auto param = GetParam();
  Xoshiro256ss rng(0xc0ffee + static_cast<std::uint64_t>(param.n) * 7919 +
                   static_cast<std::uint64_t>(param.max_weight));
  for (int trial = 0; trial < param.trials; ++trial) {
    const auto w = random_weights(param.n, param.max_weight, rng);
    const std::int64_t expected = brute_force_min(w);
    const std::int64_t actual = run_blossom(w);
    ASSERT_EQ(actual, expected)
        << "n=" << param.n << " trial=" << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphs, BlossomVsBruteForce,
    ::testing::Values(BruteForceCase{4, 10, 200}, BruteForceCase{6, 10, 200},
                      BruteForceCase{8, 10, 150}, BruteForceCase{10, 20, 100},
                      BruteForceCase{12, 5, 60}, BruteForceCase{12, 100, 60},
                      BruteForceCase{14, 7, 40}, BruteForceCase{16, 3, 25},
                      BruteForceCase{16, 1000, 25}),
    [](const ::testing::TestParamInfo<BruteForceCase>& info) {
      return "n" + std::to_string(info.param.n) + "_w" +
             std::to_string(info.param.max_weight);
    });

// Larger randomized sanity: weight must match a greedy upper bound or beat
// it, and duplicate solves must be deterministic.
TEST(Blossom, DeterministicAndNoWorseThanGreedy) {
  Xoshiro256ss rng(42);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 40;
    const auto w = random_weights(n, 50, rng);
    const std::int64_t first = run_blossom(w);
    const std::int64_t second = run_blossom(w);
    EXPECT_EQ(first, second);
    // Greedy: repeatedly take the globally cheapest remaining pair.
    std::vector<bool> used(static_cast<std::size_t>(n), false);
    std::int64_t greedy = 0;
    for (int k = 0; k < n / 2; ++k) {
      std::int64_t best = std::numeric_limits<std::int64_t>::max();
      int bi = -1, bj = -1;
      for (int i = 0; i < n; ++i) {
        if (used[static_cast<std::size_t>(i)]) continue;
        for (int j = i + 1; j < n; ++j) {
          if (used[static_cast<std::size_t>(j)]) continue;
          if (w[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] <
              best) {
            best = w[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
            bi = i;
            bj = j;
          }
        }
      }
      used[static_cast<std::size_t>(bi)] = true;
      used[static_cast<std::size_t>(bj)] = true;
      greedy += best;
    }
    EXPECT_LE(first, greedy);
  }
}


// ---------------------------------------------------------------------------
// Exact-replica oracle.

/// The original BlossomMatcher, frozen: nested-vector edge matrix, edge
/// deltas recomputed on every comparison, a fresh workspace per solve.
/// Only the names differ; every statement keeps its original order, so it
/// takes the original pivot sequence.
class FrozenBlossom {
 public:
  explicit FrozenBlossom(int n) : n_(n) {
    n_total_ = n + n / 2 + 2;
    input_weight_.assign(
        static_cast<std::size_t>(n) * static_cast<std::size_t>(n), 0);
  }

  void set_weight(int u, int v, std::int64_t weight) {
    input_weight_[static_cast<std::size_t>(u) * n_ + v] = weight;
    input_weight_[static_cast<std::size_t>(v) * n_ + u] = weight;
  }

  std::int64_t matching_weight() const { return matching_weight_; }

  std::vector<int> solve() {
    matching_weight_ = 0;
    if (n_ == 0) return {};
    std::int64_t w_max = 0;
    for (std::int64_t w : input_weight_) w_max = std::max(w_max, w);
    const std::int64_t offset = w_max + 1;
    g_.assign(static_cast<std::size_t>(n_total_),
              std::vector<Edge>(static_cast<std::size_t>(n_total_)));
    for (int u = 1; u <= n_; ++u) {
      for (int v = 1; v <= n_; ++v) {
        std::int64_t w = 0;
        if (u != v) {
          w = offset -
              input_weight_[static_cast<std::size_t>(u - 1) * n_ + (v - 1)];
        }
        g_[u][v] = Edge{u, v, w};
      }
    }
    for (int u = n_ + 1; u < n_total_; ++u) {
      for (int v = 0; v < n_total_; ++v) {
        g_[u][v] = Edge{u, v, 0};
        g_[v][u] = Edge{v, u, 0};
      }
    }
    const auto size = static_cast<std::size_t>(n_total_);
    lab_.assign(size, 0);
    match_.assign(size, 0);
    slack_.assign(size, 0);
    st_.assign(size, 0);
    pa_.assign(size, 0);
    s_.assign(size, -1);
    vis_.assign(size, 0);
    flower_.assign(size, {});
    flower_from_.assign(size,
                        std::vector<int>(static_cast<std::size_t>(n_ + 1), 0));
    lca_timer_ = 0;
    n_x_ = n_;
    for (int u = 0; u <= n_; ++u) st_[u] = u;
    for (int u = 1; u <= n_; ++u) {
      for (int v = 1; v <= n_; ++v) flower_from_[u][v] = (u == v) ? u : 0;
    }
    for (int u = 1; u <= n_; ++u) lab_[u] = offset;
    while (matching_phase()) {
    }
    std::vector<int> mate(static_cast<std::size_t>(n_), -1);
    for (int u = 1; u <= n_; ++u) {
      if (match_[u]) {
        mate[u - 1] = match_[u] - 1;
        if (match_[u] < u) {
          matching_weight_ +=
              input_weight_[static_cast<std::size_t>(u - 1) * n_ +
                            (match_[u] - 1)];
        }
      }
    }
    return mate;
  }

 private:
  struct Edge {
    int u = 0;
    int v = 0;
    std::int64_t w = 0;
  };
  static constexpr std::int64_t kInf =
      std::numeric_limits<std::int64_t>::max() / 4;

  std::int64_t edge_delta(const Edge& e) const {
    return lab_[e.u] + lab_[e.v] - g_[e.u][e.v].w * 2;
  }
  void update_slack(int u, int x) {
    if (!slack_[x] || edge_delta(g_[u][x]) < edge_delta(g_[slack_[x]][x])) {
      slack_[x] = u;
    }
  }
  void set_slack(int x) {
    slack_[x] = 0;
    for (int u = 1; u <= n_; ++u) {
      if (g_[u][x].w > 0 && st_[u] != x && s_[st_[u]] == 0) update_slack(u, x);
    }
  }
  void queue_push(int x) {
    if (x <= n_) {
      queue_.push_back(x);
    } else {
      for (int sub : flower_[x]) queue_push(sub);
    }
  }
  void set_st(int x, int b) {
    st_[x] = b;
    if (x > n_) {
      for (int sub : flower_[x]) set_st(sub, b);
    }
  }
  int get_pr(int b, int xr) {
    const auto it = std::find(flower_[b].begin(), flower_[b].end(), xr);
    int pr = static_cast<int>(it - flower_[b].begin());
    if (pr % 2 == 1) {
      std::reverse(flower_[b].begin() + 1, flower_[b].end());
      return static_cast<int>(flower_[b].size()) - pr;
    }
    return pr;
  }
  void set_match(int u, int v) {
    match_[u] = g_[u][v].v;
    if (u > n_) {
      const Edge e = g_[u][v];
      const int xr = flower_from_[u][e.u];
      const int pr = get_pr(u, xr);
      for (int i = 0; i < pr; ++i) {
        set_match(flower_[u][i], flower_[u][i ^ 1]);
      }
      set_match(xr, v);
      std::rotate(flower_[u].begin(), flower_[u].begin() + pr,
                  flower_[u].end());
    }
  }
  void augment(int u, int v) {
    while (true) {
      const int xnv = st_[match_[u]];
      set_match(u, v);
      if (!xnv) return;
      set_match(xnv, st_[pa_[xnv]]);
      u = st_[pa_[xnv]];
      v = xnv;
    }
  }
  int get_lca(int u, int v) {
    for (++lca_timer_; u || v; std::swap(u, v)) {
      if (u == 0) continue;
      if (vis_[u] == lca_timer_) return u;
      vis_[u] = lca_timer_;
      u = st_[match_[u]];
      if (u) u = st_[pa_[u]];
    }
    return 0;
  }
  void add_blossom(int u, int lca, int v) {
    int b = n_ + 1;
    while (b <= n_x_ && st_[b]) ++b;
    if (b > n_x_) ++n_x_;
    lab_[b] = 0;
    s_[b] = 0;
    match_[b] = match_[lca];
    flower_[b].clear();
    flower_[b].push_back(lca);
    for (int x = u, y; x != lca; x = st_[pa_[y]]) {
      flower_[b].push_back(x);
      flower_[b].push_back(y = st_[match_[x]]);
      queue_push(y);
    }
    std::reverse(flower_[b].begin() + 1, flower_[b].end());
    for (int x = v, y; x != lca; x = st_[pa_[y]]) {
      flower_[b].push_back(x);
      flower_[b].push_back(y = st_[match_[x]]);
      queue_push(y);
    }
    set_st(b, b);
    for (int x = 1; x <= n_x_; ++x) g_[b][x].w = g_[x][b].w = 0;
    for (int x = 1; x <= n_; ++x) flower_from_[b][x] = 0;
    for (int xs : flower_[b]) {
      for (int x = 1; x <= n_x_; ++x) {
        if (g_[b][x].w == 0 || edge_delta(g_[xs][x]) < edge_delta(g_[b][x])) {
          g_[b][x] = g_[xs][x];
          g_[x][b] = g_[x][xs];
        }
      }
      for (int x = 1; x <= n_; ++x) {
        if (flower_from_[xs][x]) flower_from_[b][x] = xs;
      }
    }
    set_slack(b);
  }
  void expand_blossom(int b) {
    for (int sub : flower_[b]) set_st(sub, sub);
    const int xr = flower_from_[b][g_[b][pa_[b]].u];
    const int pr = get_pr(b, xr);
    for (int i = 0; i < pr; i += 2) {
      const int xs = flower_[b][i];
      const int xns = flower_[b][i + 1];
      pa_[xs] = g_[xns][xs].u;
      s_[xs] = 1;
      s_[xns] = 0;
      slack_[xs] = 0;
      set_slack(xns);
      queue_push(xns);
    }
    s_[xr] = 1;
    pa_[xr] = pa_[b];
    for (std::size_t i = static_cast<std::size_t>(pr) + 1;
         i < flower_[b].size(); ++i) {
      const int xs = flower_[b][i];
      s_[xs] = -1;
      set_slack(xs);
    }
    st_[b] = 0;
  }
  bool on_found_edge(const Edge& e) {
    const int u = st_[e.u];
    const int v = st_[e.v];
    if (s_[v] == -1) {
      pa_[v] = e.u;
      s_[v] = 1;
      const int nu = st_[match_[v]];
      slack_[v] = slack_[nu] = 0;
      s_[nu] = 0;
      queue_push(nu);
    } else if (s_[v] == 0) {
      const int lca = get_lca(u, v);
      if (!lca) {
        augment(u, v);
        augment(v, u);
        return true;
      }
      add_blossom(u, lca, v);
    }
    return false;
  }
  bool matching_phase() {
    std::fill(s_.begin() + 1, s_.begin() + n_x_ + 1, -1);
    std::fill(slack_.begin() + 1, slack_.begin() + n_x_ + 1, 0);
    queue_.clear();
    queue_head_ = 0;
    for (int x = 1; x <= n_x_; ++x) {
      if (st_[x] == x && !match_[x]) {
        pa_[x] = 0;
        s_[x] = 0;
        queue_push(x);
      }
    }
    if (queue_.empty()) return false;
    while (true) {
      while (queue_head_ < queue_.size()) {
        const int u = queue_[queue_head_++];
        if (s_[st_[u]] == 1) continue;
        for (int v = 1; v <= n_; ++v) {
          if (g_[u][v].w > 0 && st_[u] != st_[v]) {
            if (edge_delta(g_[u][v]) == 0) {
              if (on_found_edge(g_[u][v])) return true;
            } else {
              update_slack(u, st_[v]);
            }
          }
        }
      }
      std::int64_t d = kInf;
      for (int b = n_ + 1; b <= n_x_; ++b) {
        if (st_[b] == b && s_[b] == 1) d = std::min(d, lab_[b] / 2);
      }
      for (int x = 1; x <= n_x_; ++x) {
        if (st_[x] == x && slack_[x]) {
          if (s_[x] == -1) {
            d = std::min(d, edge_delta(g_[slack_[x]][x]));
          } else if (s_[x] == 0) {
            d = std::min(d, edge_delta(g_[slack_[x]][x]) / 2);
          }
        }
      }
      for (int u = 1; u <= n_; ++u) {
        if (s_[st_[u]] == 0) {
          if (lab_[u] <= d) return false;
          lab_[u] -= d;
        } else if (s_[st_[u]] == 1) {
          lab_[u] += d;
        }
      }
      for (int b = n_ + 1; b <= n_x_; ++b) {
        if (st_[b] == b) {
          if (s_[b] == 0) {
            lab_[b] += d * 2;
          } else if (s_[b] == 1) {
            lab_[b] -= d * 2;
          }
        }
      }
      queue_.clear();
      queue_head_ = 0;
      for (int x = 1; x <= n_x_; ++x) {
        if (st_[x] == x && slack_[x] && st_[slack_[x]] != x &&
            edge_delta(g_[slack_[x]][x]) == 0) {
          if (on_found_edge(g_[slack_[x]][x])) return true;
        }
      }
      for (int b = n_ + 1; b <= n_x_; ++b) {
        if (st_[b] == b && s_[b] == 1 && lab_[b] == 0) expand_blossom(b);
      }
    }
  }

  int n_ = 0;
  int n_total_ = 0;
  int n_x_ = 0;
  std::vector<std::vector<Edge>> g_;
  std::vector<std::int64_t> lab_;
  std::vector<int> match_, slack_, st_, pa_, s_, vis_;
  std::vector<std::vector<int>> flower_;
  std::vector<std::vector<int>> flower_from_;
  std::vector<int> queue_;
  std::size_t queue_head_ = 0;
  std::vector<std::int64_t> input_weight_;
  std::int64_t matching_weight_ = 0;
  int lca_timer_ = 0;
};

/// Solves `w` with a fresh FrozenBlossom and with `matcher` (already sized
/// for w), expects the same mate vector and matching weight, and returns
/// the frozen mates.
std::vector<int> expect_replica(BlossomMatcher& matcher,
                                const std::vector<std::vector<std::int64_t>>& w,
                                const std::string& where) {
  FrozenBlossom frozen(static_cast<int>(w.size()));
  load(frozen, w);
  load(matcher, w);
  const std::vector<int> expected = frozen.solve();
  EXPECT_EQ(matcher.solve(), expected) << where;
  EXPECT_EQ(matcher.matching_weight(), frozen.matching_weight()) << where;
  return expected;
}

TEST(BlossomReplica, HeavyTieRandomGraphsGiveTheOriginalMates) {
  // Weights 0..max_weight with max_weight 1..3: most pairings tie, so
  // any change in the pivot sequence picks a different optimal matching.
  Xoshiro256ss rng(0x5eed);
  for (std::int64_t max_weight = 1; max_weight <= 3; ++max_weight) {
    for (int n = 2; n <= 60; n += 2) {
      for (int trial = 0; trial < 8; ++trial) {
        const auto w = random_weights(n, max_weight, rng);
        BlossomMatcher matcher(n);
        expect_replica(matcher, w,
                       "n=" + std::to_string(n) +
                           " max_weight=" + std::to_string(max_weight) +
                           " trial=" + std::to_string(trial));
      }
    }
  }
}

// The decoder's boundary-doubled graph, as mwpm_decoder.cpp builds it.
constexpr std::int64_t kForbidden = 1 << 20;

std::vector<std::vector<std::int64_t>> defect_graph(
    const PlanarLattice& lattice, const std::vector<Defect>& defects) {
  const int nd = static_cast<int>(defects.size());
  std::vector<std::vector<std::int64_t>> w(
      static_cast<std::size_t>(2 * nd),
      std::vector<std::int64_t>(static_cast<std::size_t>(2 * nd), 0));
  auto set = [&](int i, int j, std::int64_t weight) {
    w[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] = weight;
    w[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)] = weight;
  };
  for (int i = 0; i < nd; ++i) {
    for (int j = i + 1; j < nd; ++j) {
      set(i, j, defect_distance(defects[static_cast<std::size_t>(i)],
                                defects[static_cast<std::size_t>(j)]));
      set(nd + i, nd + j, 0);
    }
    set(i, nd + i,
        lattice.boundary_distance(defects[static_cast<std::size_t>(i)].col));
    for (int j = 0; j < nd; ++j) {
      if (j != i) set(i, nd + j, kForbidden);
    }
  }
  return w;
}

TEST(BlossomReplica, DecoderInstancesGiveTheOriginalMatches) {
  int instances = 0;
  for (int d = 3; d <= 11; d += 2) {
    const PlanarLattice lattice(d);
    for (const double p : {0.005, 0.015, 0.03}) {
      Xoshiro256ss rng(0xdec0de + static_cast<std::uint64_t>(d) * 1000 +
                       static_cast<std::uint64_t>(p * 1e4));
      const NoiseParams params{p, p, d};
      for (int trial = 0; trial < 4; ++trial) {
        const SyndromeHistory history = sample_history(lattice, params, rng);
        const std::vector<Defect> defects =
            collect_defects(lattice, history.difference);
        if (defects.empty()) continue;
        ++instances;
        const auto w = defect_graph(lattice, defects);
        const std::string where = "d=" + std::to_string(d) +
                                  " p=" + std::to_string(p) +
                                  " trial=" + std::to_string(trial);
        BlossomMatcher matcher(static_cast<int>(w.size()));
        const std::vector<int> mate = expect_replica(matcher, w, where);

        // The decoder's pairs are the frozen mates read back.
        const int nd = static_cast<int>(defects.size());
        std::vector<MatchedPair> expected;
        for (int i = 0; i < nd; ++i) {
          const int m = mate[static_cast<std::size_t>(i)];
          if (m == nd + i) {
            expected.push_back({defects[static_cast<std::size_t>(i)], {}, true});
          } else if (m > i && m < nd) {
            expected.push_back({defects[static_cast<std::size_t>(i)],
                                 defects[static_cast<std::size_t>(m)], false});
          }
        }
        const auto pairs = MwpmDecoder::match_defects(lattice, defects);
        ASSERT_EQ(pairs.size(), expected.size()) << where;
        for (std::size_t k = 0; k < pairs.size(); ++k) {
          ASSERT_EQ(pairs[k].a, expected[k].a) << where;
          ASSERT_EQ(pairs[k].to_boundary, expected[k].to_boundary) << where;
          if (!expected[k].to_boundary) {
            ASSERT_EQ(pairs[k].b, expected[k].b) << where;
          }
        }
      }
    }
  }
  EXPECT_GE(instances, 50);
}

TEST(BlossomReplica, ReusedMatcherAcrossShrinkingAndGrowingSizes) {
  // One workspace, resized between solves: stale rows, labels, flowers or
  // weights from a larger instance must never leak into a smaller one.
  Xoshiro256ss rng(0xab1e);
  BlossomMatcher matcher;
  for (const int n : {40, 8, 60, 2, 0, 24, 58, 6, 30, 60, 4}) {
    for (const std::int64_t max_weight : {2, 50}) {
      const auto w = random_weights(n, max_weight, rng);
      matcher.reset(n);
      const std::vector<int> expected = expect_replica(
          matcher, w,
          "n=" + std::to_string(n) +
              " max_weight=" + std::to_string(max_weight));
      // A second solve of the same weights without reset is unchanged.
      EXPECT_EQ(matcher.solve(), expected) << "repeat n=" << n;
    }
  }
}

// ---------------------------------------------------------------------------
// Decoder golden digests.

/// FNV-1a 64 of every correction `spec` produces over a seeded grid
/// (captured from the original matcher):
/// d in {3, 5, 7, 9}, p = p_data = p_meas in {0.01, 0.02, 0.03}, d noisy
/// rounds, 12 trials per cell from Xoshiro256ss(2021 + 100 d + cell).
std::uint64_t correction_digest(const char* spec) {
  std::vector<std::uint8_t> bytes;
  for (int d = 3; d <= 9; d += 2) {
    const PlanarLattice lattice(d);
    int cell = 0;
    for (const double p : {0.01, 0.02, 0.03}) {
      auto decoder = make_decoder(spec);
      Xoshiro256ss rng(2021 + 100 * static_cast<std::uint64_t>(d) +
                       static_cast<std::uint64_t>(cell++));
      const NoiseParams params{p, p, d};
      for (int trial = 0; trial < 12; ++trial) {
        const SyndromeHistory history = sample_history(lattice, params, rng);
        const DecodeResult result = decoder->decode(lattice, history);
        bytes.insert(bytes.end(), result.correction.begin(),
                     result.correction.end());
      }
    }
  }
  return fnv1a64(bytes.data(), bytes.size());
}

TEST(MatchingGolden, MwpmCorrectionsMatchTheOriginalMatcher) {
  EXPECT_EQ(correction_digest("mwpm"), 0x8b6d609597d3d876ULL);
}

TEST(MatchingGolden, WindowedMwpmCorrectionsMatchTheOriginalMatcher) {
  EXPECT_EQ(correction_digest("windowed-mwpm"), 0x128a5a7fcc19d9aaULL);
}

}  // namespace
}  // namespace qec
