#include "core/state_io.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "graph/generators.h"
#include "graph/subgraph.h"
#include "common/hash.h"
#include "testing/world_folds.h"

namespace jxp {
namespace core {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

class StateIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/peer_state_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".jxp";
    Random rng(17);
    graph_ = graph::BarabasiAlbert(200, 3, rng);
  }
  void TearDown() override { std::remove(path_.c_str()); }

  JxpPeer MakeWarmPeer() {
    std::vector<graph::PageId> pages_a;
    std::vector<graph::PageId> pages_b;
    for (graph::PageId p = 0; p < 200; ++p) {
      (p % 3 == 0 ? pages_a : pages_b).push_back(p);
    }
    JxpOptions options;
    JxpPeer a(0, graph::Subgraph::Induce(graph_, pages_a), 200, options);
    JxpPeer b(1, graph::Subgraph::Induce(graph_, pages_b), 200, options);
    for (int i = 0; i < 8; ++i) JxpPeer::Meet(a, b);
    return a;
  }

  std::string path_;
  graph::Graph graph_;
};

TEST_F(StateIoTest, RoundTripPreservesEverything) {
  const JxpPeer original = MakeWarmPeer();
  ASSERT_TRUE(SavePeerState(original, path_).ok());
  auto loaded = LoadPeerState(path_, original.options());
  ASSERT_TRUE(loaded.ok()) << loaded.status();

  // EXPECT_EQ, not DOUBLE_EQ: every score round-trips bit for bit.
  EXPECT_EQ(loaded->id(), original.id());
  EXPECT_EQ(loaded->global_size(), original.global_size());
  EXPECT_EQ(loaded->world_score(), original.world_score());
  ASSERT_EQ(loaded->fragment().NumLocalPages(), original.fragment().NumLocalPages());
  for (graph::Subgraph::LocalIndex i = 0; i < original.fragment().NumLocalPages(); ++i) {
    EXPECT_EQ(loaded->fragment().GlobalId(i), original.fragment().GlobalId(i));
    EXPECT_EQ(loaded->local_scores()[i], original.local_scores()[i]);
    EXPECT_EQ(loaded->fragment().GlobalOutDegree(i),
              original.fragment().GlobalOutDegree(i));
  }
  ASSERT_EQ(loaded->world_node().NumEntries(), original.world_node().NumEntries());
  for (size_t e = 0; e < original.world_node().NumEntries(); ++e) {
    const ExternalPageInfo info = original.world_node().Entry(e);
    const auto restored = loaded->world_node().Find(info.page);
    ASSERT_TRUE(restored.has_value()) << "page " << info.page;
    EXPECT_EQ(restored->out_degree, info.out_degree);
    EXPECT_EQ(restored->score, info.score);
    EXPECT_TRUE(std::ranges::equal(restored->targets, info.targets));
  }
  EXPECT_EQ(loaded->world_node().TotalDanglingScore(),
            original.world_node().TotalDanglingScore());

  // Saving the loaded peer writes the same bytes: a load is a pure no-op,
  // however often it is repeated.
  const std::string resaved = path_ + ".resaved";
  ASSERT_TRUE(SavePeerState(*loaded, resaved).ok());
  EXPECT_EQ(ReadFile(resaved), ReadFile(path_));
  std::remove(resaved.c_str());
}

TEST_F(StateIoTest, RestoredPeerResumesMeetings) {
  JxpPeer original = MakeWarmPeer();
  ASSERT_TRUE(SavePeerState(original, path_).ok());
  auto loaded = LoadPeerState(path_, original.options());
  ASSERT_TRUE(loaded.ok());

  // Both the original and the restored copy meet the same fresh partner;
  // their resulting scores must be identical.
  std::vector<graph::PageId> partner_pages;
  for (graph::PageId p = 0; p < 200; p += 2) partner_pages.push_back(p);
  JxpOptions options;
  JxpPeer partner1(7, graph::Subgraph::Induce(graph_, partner_pages), 200, options);
  JxpPeer partner2(8, graph::Subgraph::Induce(graph_, partner_pages), 200, options);
  JxpPeer::Meet(original, partner1);
  JxpPeer::Meet(*loaded, partner2);
  for (graph::Subgraph::LocalIndex i = 0; i < original.fragment().NumLocalPages(); ++i) {
    EXPECT_NEAR(loaded->local_scores()[i], original.local_scores()[i], 1e-14);
  }
}

TEST_F(StateIoTest, DetectsBitFlips) {
  const JxpPeer original = MakeWarmPeer();
  ASSERT_TRUE(SavePeerState(original, path_).ok());
  // Flip one character in the middle of the file.
  std::string content;
  {
    std::ifstream in(path_);
    std::stringstream ss;
    ss << in.rdbuf();
    content = ss.str();
  }
  content[content.size() / 2] = content[content.size() / 2] == '1' ? '2' : '1';
  {
    std::ofstream out(path_, std::ios::trunc);
    out << content;
  }
  auto loaded = LoadPeerState(path_, original.options());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST_F(StateIoTest, DetectsTruncation) {
  const JxpPeer original = MakeWarmPeer();
  ASSERT_TRUE(SavePeerState(original, path_).ok());
  std::string content;
  {
    std::ifstream in(path_);
    std::stringstream ss;
    ss << in.rdbuf();
    content = ss.str();
  }
  {
    std::ofstream out(path_, std::ios::trunc);
    out << content.substr(0, content.size() / 3);
  }
  auto loaded = LoadPeerState(path_, original.options());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST_F(StateIoTest, MissingFileIsIOError) {
  auto loaded = LoadPeerState(path_ + ".absent", JxpOptions());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
}

TEST_F(StateIoTest, SaveIntoMissingDirectoryIsIOError) {
  const JxpPeer original = MakeWarmPeer();
  const Status status = SavePeerState(original, path_ + ".absent/peer.jxp");
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIOError);
}

TEST_F(StateIoTest, RejectsWrongMagic) {
  {
    std::ofstream out(path_);
    const std::string body = "NOTJXP v9\n";
    out << body << "checksum " << HashString(body) << "\n";
  }
  auto loaded = LoadPeerState(path_, JxpOptions());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST_F(StateIoTest, EqualStatesWriteIdenticalFiles) {
  // Two peers hold the same state, their world knowledge learned in
  // opposite orders: the checkpoint follows the state, not the history.
  const JxpPeer warm = MakeWarmPeer();
  const WorldNode& known = warm.world_node();
  ASSERT_GT(known.NumEntries(), 1u);
  WorldNode forward;
  WorldNode backward;
  for (size_t e = 0; e < known.NumEntries(); ++e) {
    const ExternalPageInfo in_order = known.Entry(e);
    const ExternalPageInfo reversed = known.Entry(known.NumEntries() - 1 - e);
    FoldEntry(forward, in_order.page, in_order.out_degree, in_order.score,
              in_order.targets, CombineMode::kTakeMax);
    FoldEntry(backward, reversed.page, reversed.out_degree, reversed.score,
              reversed.targets, CombineMode::kTakeMax);
  }
  const auto& dangling = known.columns();
  for (size_t d = 0; d < dangling.dangling_pages.size(); ++d) {
    const size_t r = dangling.dangling_pages.size() - 1 - d;
    FoldDangling(forward, dangling.dangling_pages[d], dangling.dangling_scores[d],
                 CombineMode::kTakeMax);
    FoldDangling(backward, dangling.dangling_pages[r], dangling.dangling_scores[r],
                 CombineMode::kTakeMax);
  }
  const auto restore = [&](WorldNode world) {
    return JxpPeer(warm.id(), warm.fragment(), warm.global_size(), warm.options(),
                   warm.local_scores(), std::move(world), warm.world_score());
  };
  const std::string other = path_ + ".other";
  ASSERT_TRUE(SavePeerState(restore(std::move(forward)), path_).ok());
  ASSERT_TRUE(SavePeerState(restore(std::move(backward)), other).ok());
  const std::string saved = ReadFile(path_);
  EXPECT_EQ(saved, ReadFile(other));
  ASSERT_TRUE(SavePeerState(warm, other).ok());
  EXPECT_EQ(saved, ReadFile(other));
  std::remove(other.c_str());
}

TEST_F(StateIoTest, RejectsLegacyFileWithWorldEntriesOutOfPageOrder) {
  // Files written while the world node was a hash map list entries, their
  // targets and dangling pages in any order. The loader reads only the
  // page-sorted layout SavePeerState writes, so such a file is Corruption.
  const JxpPeer original = MakeWarmPeer();
  ASSERT_GT(original.world_node().NumEntries(), 1u);
  ASSERT_TRUE(SavePeerState(original, path_).ok());
  const std::string canonical = ReadFile(path_);

  std::vector<std::string> lines;
  std::istringstream split(canonical.substr(0, canonical.rfind("checksum ")));
  for (std::string line; std::getline(split, line);) lines.push_back(line);
  const auto section = [&lines](const std::string& prefix) {
    for (size_t i = 0; i < lines.size(); ++i) {
      if (lines[i].rfind(prefix, 0) == 0) return i;
    }
    ADD_FAILURE() << "no " << prefix << " line";
    return size_t{0};
  };
  const size_t entries = section("world_entries ");
  const size_t num_entries = original.world_node().NumEntries();
  std::reverse(lines.begin() + static_cast<ptrdiff_t>(entries + 1),
               lines.begin() + static_cast<ptrdiff_t>(entries + 1 + num_entries));
  // Reverse the target list of one multi-target entry, if there is one.
  for (size_t i = entries + 1; i <= entries + num_entries; ++i) {
    std::istringstream fields(lines[i]);
    std::vector<std::string> tokens;
    for (std::string token; fields >> token;) tokens.push_back(token);
    if (tokens.size() < 6) continue;
    std::reverse(tokens.begin() + 4, tokens.end());
    std::string rewritten;
    for (const std::string& token : tokens) {
      rewritten += (rewritten.empty() ? "" : " ") + token;
    }
    lines[i] = rewritten;
    break;
  }
  const size_t dangling = section("dangling ");
  std::reverse(lines.begin() + static_cast<ptrdiff_t>(dangling + 1), lines.end());
  std::string body;
  for (const std::string& line : lines) body += line + "\n";
  ASSERT_NE(body + "checksum " + std::to_string(HashString(body)) + "\n", canonical);
  {
    std::ofstream out(path_, std::ios::trunc);
    out << body << "checksum " << HashString(body) << "\n";
  }

  auto loaded = LoadPeerState(path_, original.options());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

}  // namespace
}  // namespace core
}  // namespace jxp
