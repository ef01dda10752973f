#include "generators.h"

#include <algorithm>
#include <sstream>

#include "common/random.h"

namespace jxp {
namespace proptest {

std::string FaultCase::Describe() const {
  std::ostringstream os;
  os << "seed=" << seed << " nodes=" << num_nodes << " peers=" << num_peers
     << " meetings=" << num_meetings << " merge=" << (full_merge ? "full" : "light")
     << " drop=" << plan.message_drop_probability
     << " trunc=" << plan.truncation_probability << "@" << plan.truncation_keep_fraction
     << " corrupt=" << plan.corruption_probability << " crash=" << crash_probability
     << " stale=" << stale_resume_probability << " fault_seed=" << plan.seed;
  return os.str();
}

std::vector<FaultCase> FaultCase::Shrink() const {
  std::vector<FaultCase> candidates;
  const auto with = [this](auto mutate) {
    FaultCase c = *this;
    mutate(c);
    return c;
  };
  if (num_nodes > 16) {
    candidates.push_back(with([](FaultCase& c) {
      c.num_nodes = std::max<size_t>(16, c.num_nodes / 2);
    }));
  }
  if (num_peers > 2) {
    candidates.push_back(with([](FaultCase& c) {
      c.num_peers = std::max<size_t>(2, c.num_peers / 2);
    }));
  }
  if (num_meetings > 10) {
    candidates.push_back(with([](FaultCase& c) {
      c.num_meetings = std::max<size_t>(10, c.num_meetings / 2);
    }));
  }
  if (full_merge) {
    candidates.push_back(with([](FaultCase& c) { c.full_merge = false; }));
  }
  if (plan.message_drop_probability > 0) {
    candidates.push_back(with([](FaultCase& c) { c.plan.message_drop_probability = 0; }));
  }
  if (plan.truncation_probability > 0) {
    candidates.push_back(with([](FaultCase& c) { c.plan.truncation_probability = 0; }));
  }
  if (plan.corruption_probability > 0) {
    candidates.push_back(with([](FaultCase& c) { c.plan.corruption_probability = 0; }));
  }
  if (crash_probability > 0) {
    candidates.push_back(with([](FaultCase& c) { c.crash_probability = 0; }));
  }
  if (stale_resume_probability > 0) {
    candidates.push_back(with([](FaultCase& c) { c.stale_resume_probability = 0; }));
  }
  return candidates;
}

FaultCase GenerateFaultCase(uint64_t seed, const PlanLimits& limits) {
  FaultCase c;
  c.seed = seed;
  Random rng(seed ^ 0x5eedf001cafeULL);
  c.num_nodes = 16 + rng.NextBounded(41);      // 16..56
  c.num_peers = 2 + rng.NextBounded(4);        // 2..5
  c.num_meetings = 30 + rng.NextBounded(91);   // 30..120
  c.full_merge = rng.NextBool(0.25);
  c.plan.message_drop_probability = limits.max_drop * rng.NextDouble();
  c.plan.truncation_probability = limits.max_truncation * rng.NextDouble();
  c.plan.truncation_keep_fraction = 0.2 + 0.8 * rng.NextDouble();
  c.plan.corruption_probability = limits.max_corruption * rng.NextDouble();
  c.crash_probability = limits.max_crash * rng.NextDouble();
  c.stale_resume_probability = limits.max_stale_resume * rng.NextDouble();
  c.plan.seed = SplitMix64(seed ^ 0xfa0175ULL).Next();
  return c;
}

namespace {

GeneratedWorld BuildWorldImpl(uint64_t seed, size_t num_nodes, size_t num_peers) {
  GeneratedWorld world;
  Random rng(seed ^ 0x6e57a9b1ULL);
  world.graph = graph::BarabasiAlbert(num_nodes, 3, rng);
  // Overlapping fragments that jointly cover the graph (the theorem-test
  // idiom): every page goes to one random peer, then up to two extra
  // replicas land on random peers with probability 1/2 each.
  world.fragments.assign(num_peers, {});
  for (graph::PageId p = 0; p < num_nodes; ++p) {
    world.fragments[rng.NextBounded(num_peers)].push_back(p);
    for (int extra = 0; extra < 2; ++extra) {
      if (rng.NextBool(0.5)) {
        world.fragments[rng.NextBounded(num_peers)].push_back(p);
      }
    }
  }
  for (auto& fragment : world.fragments) {
    if (fragment.empty()) {
      fragment.push_back(static_cast<graph::PageId>(rng.NextBounded(num_nodes)));
    }
  }
  return world;
}

}  // namespace

GeneratedWorld BuildWorld(const FaultCase& c) {
  return BuildWorldImpl(c.seed, c.num_nodes, c.num_peers);
}

std::string ChurnCase::Describe() const {
  std::ostringstream os;
  os << "seed=" << seed << " nodes=" << num_nodes << " peers=" << num_peers
     << " events=" << num_events << " churn=" << churn_probability
     << " merge=" << (full_merge ? "full" : "light");
  return os.str();
}

std::vector<ChurnCase> ChurnCase::Shrink() const {
  std::vector<ChurnCase> candidates;
  const auto with = [this](auto mutate) {
    ChurnCase c = *this;
    mutate(c);
    return c;
  };
  if (num_events > 8) {
    candidates.push_back(with([](ChurnCase& c) {
      c.num_events = std::max<size_t>(8, c.num_events / 2);
    }));
  }
  if (num_nodes > 16) {
    candidates.push_back(with([](ChurnCase& c) {
      c.num_nodes = std::max<size_t>(16, c.num_nodes / 2);
    }));
  }
  if (num_peers > 2) {
    candidates.push_back(with([](ChurnCase& c) {
      c.num_peers = std::max<size_t>(2, c.num_peers / 2);
    }));
  }
  if (churn_probability > 0) {
    candidates.push_back(with([](ChurnCase& c) { c.churn_probability = 0; }));
  }
  if (full_merge) {
    candidates.push_back(with([](ChurnCase& c) { c.full_merge = false; }));
  }
  return candidates;
}

ChurnCase GenerateChurnCase(uint64_t seed) {
  ChurnCase c;
  c.seed = seed;
  Random rng(seed ^ 0xc4125eedULL);
  c.num_nodes = 16 + rng.NextBounded(41);    // 16..56
  c.num_peers = 2 + rng.NextBounded(4);      // 2..5
  c.num_events = 24 + rng.NextBounded(73);   // 24..96
  c.churn_probability = 0.1 + 0.3 * rng.NextDouble();
  c.full_merge = rng.NextBool(0.25);
  return c;
}

GeneratedWorld BuildWorld(const ChurnCase& c) {
  return BuildWorldImpl(c.seed, c.num_nodes, c.num_peers);
}

std::vector<ChurnEvent> BuildChurnSchedule(const ChurnCase& c) {
  std::vector<ChurnEvent> schedule;
  schedule.reserve(c.num_events);
  Random rng(c.seed ^ 0x5c4ed01eULL);
  for (size_t i = 0; i < c.num_events; ++i) {
    ChurnEvent e;
    e.seed = rng.NextUint64();
    if (c.num_peers >= 2 && !rng.NextBool(c.churn_probability)) {
      e.kind = ChurnEvent::Kind::kMeeting;
      e.peer_a = rng.NextBounded(c.num_peers);
      e.peer_b = rng.NextBounded(c.num_peers - 1);
      if (e.peer_b >= e.peer_a) ++e.peer_b;
    } else {
      switch (rng.NextBounded(3)) {
        case 0: e.kind = ChurnEvent::Kind::kFragmentAdd; break;
        case 1: e.kind = ChurnEvent::Kind::kFragmentRemove; break;
        default: e.kind = ChurnEvent::Kind::kFragmentEdit; break;
      }
      e.peer_a = rng.NextBounded(c.num_peers);
    }
    schedule.push_back(e);
  }
  return schedule;
}

std::vector<graph::PageId> ApplyChurnEvent(const ChurnEvent& e, size_t num_nodes,
                                           std::vector<graph::PageId> pages) {
  std::sort(pages.begin(), pages.end());
  pages.erase(std::unique(pages.begin(), pages.end()), pages.end());
  Random rng(e.seed ^ 0xf4a63e47ULL);
  const auto add_one = [&] {
    if (pages.size() >= num_nodes) return;
    // Pick the k-th page (by id) the peer does not hold; `pages` is sorted.
    size_t k = rng.NextBounded(num_nodes - pages.size());
    size_t held = 0;
    for (graph::PageId p = 0; p < num_nodes; ++p) {
      if (held < pages.size() && pages[held] == p) {
        ++held;
        continue;
      }
      if (k == 0) {
        pages.insert(pages.begin() + static_cast<ptrdiff_t>(held), p);
        return;
      }
      --k;
    }
  };
  const auto remove_one = [&] {
    if (pages.size() <= 1) return;  // A peer never drops its last page.
    pages.erase(pages.begin() + static_cast<ptrdiff_t>(rng.NextBounded(pages.size())));
  };
  switch (e.kind) {
    case ChurnEvent::Kind::kMeeting:
      break;
    case ChurnEvent::Kind::kFragmentAdd:
      add_one();
      break;
    case ChurnEvent::Kind::kFragmentRemove:
      remove_one();
      break;
    case ChurnEvent::Kind::kFragmentEdit:
      remove_one();
      add_one();
      break;
  }
  return pages;
}

}  // namespace proptest
}  // namespace jxp
