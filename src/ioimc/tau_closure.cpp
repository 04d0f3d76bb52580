#include "ioimc/tau_closure.hpp"

#include <algorithm>
#include <iterator>

#include "common/cancel.hpp"

namespace imcdft::ioimc::detail {

namespace {

/// Replaces the sorted set \p acc by its union with the sorted set \p run.
template <class T>
void unite(std::vector<T>& acc, std::span<const T> run, std::vector<T>& tmp) {
  if (acc.empty()) {
    acc.assign(run.begin(), run.end());
    return;
  }
  tmp.clear();
  std::set_union(acc.begin(), acc.end(), run.begin(), run.end(),
                 std::back_inserter(tmp));
  acc.swap(tmp);
}

}  // namespace

TauClosure computeTauClosure(const IOIMC& m,
                             const std::vector<ActionRole>& roles,
                             const std::vector<std::uint8_t>* pinned,
                             const char* site, const CancelToken* cancel) {
  const std::size_t n = m.numStates();
  TauClosure info;
  info.stable.assign(n, true);
  // Tau successors in CSR, each row sorted and deduplicated.
  std::vector<std::uint32_t> succOffsets{0};
  std::vector<StateId> succ;
  succOffsets.reserve(n + 1);
  for (StateId s = 0; s < n; ++s) {
    const auto begin = static_cast<std::ptrdiff_t>(succ.size());
    for (const auto& t : m.interactive(s)) {
      if (roles[t.action] == ActionRole::Internal) {
        succ.push_back(t.to);
        info.stable[s] = false;
      } else if (roles[t.action] == ActionRole::Output) {
        info.stable[s] = false;
      }
    }
    std::sort(succ.begin() + begin, succ.end());
    succ.erase(std::unique(succ.begin() + begin, succ.end()), succ.end());
    succOffsets.push_back(static_cast<std::uint32_t>(succ.size()));
  }
  if (pinned)
    for (StateId s = 0; s < n; ++s)
      if ((*pinned)[s]) info.stable[s] = false;
  auto tauSucc = [&](StateId s) {
    return std::span<const StateId>(succ.data() + succOffsets[s],
                                    succOffsets[s + 1] - succOffsets[s]);
  };

  // Iterative Tarjan SCC over the tau graph.  A state without tau
  // successors closes its own component at once, as the full frame would.
  constexpr StateId kUndef = static_cast<StateId>(-1);
  std::vector<StateId> index(n, kUndef), low(n, 0);
  info.compOf.assign(n, kUndef);
  std::vector<bool> onStack(n, false);
  std::vector<StateId> stack;
  std::uint32_t nextIndex = 0, numComps = 0;
  struct Frame {
    StateId v;
    std::size_t child;
  };
  std::vector<Frame> callStack;
  for (StateId root = 0; root < n; ++root) {
    if (index[root] != kUndef) continue;
    if (tauSucc(root).empty()) {
      index[root] = nextIndex++;
      info.compOf[root] = numComps++;
      continue;
    }
    callStack.push_back({root, 0});
    while (!callStack.empty()) {
      Frame& f = callStack.back();
      StateId v = f.v;
      if (f.child == 0) {
        index[v] = low[v] = nextIndex++;
        stack.push_back(v);
        onStack[v] = true;
      }
      bool descended = false;
      const auto row = tauSucc(v);
      while (f.child < row.size()) {
        StateId w = row[f.child++];
        if (index[w] == kUndef) {
          if (tauSucc(w).empty()) {
            index[w] = nextIndex++;
            info.compOf[w] = numComps++;
            continue;
          }
          callStack.push_back({w, 0});
          descended = true;
          break;
        }
        if (onStack[w]) low[v] = std::min(low[v], index[w]);
      }
      if (descended) continue;
      if (low[v] == index[v]) {
        while (true) {
          StateId w = stack.back();
          stack.pop_back();
          onStack[w] = false;
          info.compOf[w] = numComps;
          if (w == v) break;
        }
        ++numComps;
      }
      callStack.pop_back();
      if (!callStack.empty()) {
        StateId parent = callStack.back().v;
        low[parent] = std::min(low[parent], low[v]);
      }
    }
  }

  // Members per component come from a counting sort, so each list is
  // sorted.
  std::vector<std::uint32_t> memberOffsets(numComps + 1, 0);
  for (StateId s = 0; s < n; ++s) ++memberOffsets[info.compOf[s] + 1];
  for (std::uint32_t c = 0; c < numComps; ++c)
    memberOffsets[c + 1] += memberOffsets[c];
  std::vector<StateId> members(n);
  {
    std::vector<std::uint32_t> fill(memberOffsets.begin(),
                                    memberOffsets.end() - 1);
    for (StateId s = 0; s < n; ++s) members[fill[info.compOf[s]]++] = s;
  }
  auto own = [&](std::uint32_t c) {
    return std::span<const StateId>(members.data() + memberOffsets[c],
                                    memberOffsets[c + 1] - memberOffsets[c]);
  };
  auto closureOf = [&](std::uint32_t c) {
    return std::span<const StateId>(
        info.compClosure.data() + info.compOffsets[c],
        info.compOffsets[c + 1] - info.compOffsets[c]);
  };

  // Closures bottom-up, straight into one shared CSR array.  Every visible
  // edge can lead into any component, so the moves need every closure and
  // run as a second bottom-up pass.
  info.compOffsets.assign(1, 0);
  info.compOffsets.reserve(numComps + 1);
  info.compClosure.reserve(n);
  std::vector<StateId> acc, accTmp;
  for (std::uint32_t c = 0; c < numComps; ++c) {
    acc.assign(own(c).begin(), own(c).end());
    for (StateId s : own(c))
      for (StateId t : tauSucc(s))
        if (info.compOf[t] != c) unite(acc, closureOf(info.compOf[t]), accTmp);
    info.compClosure.insert(info.compClosure.end(), acc.begin(), acc.end());
    info.compOffsets.push_back(
        static_cast<std::uint32_t>(info.compClosure.size()));
  }

  info.moveRows.resize(numComps);
  std::vector<std::uint64_t> moves, movesTmp, edgeRun;
  std::size_t processed = 0, nextCheckpoint = 1024;
  for (std::uint32_t c = 0; c < numComps; ++c) {
    processed += own(c).size();
    for (; cancel && processed >= nextCheckpoint; nextCheckpoint += 1024)
      cancel->checkpoint(site, n);
    moves.clear();
    std::pair<std::size_t, std::size_t> widest{0, 0};  // widest successor row
    for (StateId s : own(c))
      for (StateId t : tauSucc(s)) {
        if (info.compOf[t] == c) continue;
        const auto [begin, end] = info.moveRows[info.compOf[t]];
        unite(moves,
              std::span<const std::uint64_t>(info.compMoves.data() + begin,
                                             end - begin),
              movesTmp);
        if (end - begin > widest.second - widest.first) widest = {begin, end};
      }
    for (StateId u : own(c))
      for (const auto& t : m.interactive(u)) {
        if (roles[t.action] == ActionRole::Internal) continue;
        const std::uint64_t tag = static_cast<std::uint64_t>(t.action) << 32;
        edgeRun.clear();
        for (StateId v : closureOf(info.compOf[t.to]))
          edgeRun.push_back(tag | v);
        unite(moves, std::span<const std::uint64_t>(edgeRun), movesTmp);
      }
    // A union no larger than one of its sorted sets equals it.
    if (moves.size() == widest.second - widest.first) {
      info.moveRows[c] = widest;
      continue;
    }
    info.moveRows[c] = {info.compMoves.size(),
                        info.compMoves.size() + moves.size()};
    info.compMoves.insert(info.compMoves.end(), moves.begin(), moves.end());
  }
  return info;
}

}  // namespace imcdft::ioimc::detail
