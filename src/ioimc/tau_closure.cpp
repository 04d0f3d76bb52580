#include "ioimc/tau_closure.hpp"

#include <algorithm>
#include <span>

namespace imcdft::ioimc::detail {

TauClosure computeTauClosure(const IOIMC& m) {
  const std::size_t n = m.numStates();
  const std::vector<ActionRole> roles = actionRoles(m);
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
  auto tauSucc = [&](StateId s) {
    return std::span<const StateId>(succ.data() + succOffsets[s],
                                    succOffsets[s + 1] - succOffsets[s]);
  };

  // Iterative Tarjan SCC over the tau graph.
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

  // Components are numbered such that every tau successor's component id is
  // strictly smaller (Tarjan closes sinks first); compute closures bottom-up
  // straight into one shared CSR array.  Members per component come from a
  // counting sort, so each list is sorted.
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
  info.compOffsets.assign(1, 0);
  info.compOffsets.reserve(numComps + 1);
  info.compClosure.reserve(n);
  std::vector<StateId> acc;
  std::vector<std::uint32_t> succComps;
  for (std::uint32_t c = 0; c < numComps; ++c) {
    const std::span<const StateId> own(members.data() + memberOffsets[c],
                                       memberOffsets[c + 1] - memberOffsets[c]);
    succComps.clear();
    for (StateId s : own)
      for (StateId t : tauSucc(s))
        if (info.compOf[t] != c) succComps.push_back(info.compOf[t]);
    acc.assign(own.begin(), own.end());
    if (!succComps.empty()) {
      std::sort(succComps.begin(), succComps.end());
      succComps.erase(std::unique(succComps.begin(), succComps.end()),
                      succComps.end());
      for (std::uint32_t sc : succComps)
        acc.insert(acc.end(), info.compClosure.begin() + info.compOffsets[sc],
                   info.compClosure.begin() + info.compOffsets[sc + 1]);
      std::sort(acc.begin(), acc.end());
      acc.erase(std::unique(acc.begin(), acc.end()), acc.end());
    }
    info.compClosure.insert(info.compClosure.end(), acc.begin(), acc.end());
    info.compOffsets.push_back(
        static_cast<std::uint32_t>(info.compClosure.size()));
  }
  return info;
}

}  // namespace imcdft::ioimc::detail
