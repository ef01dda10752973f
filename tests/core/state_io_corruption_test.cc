// Structural-corruption matrix for LoadPeerState: every Corruption branch
// of the loader is hit by a targeted mutation of a valid state file. All
// body mutations recompute the trailing FNV-1a checksum, so each case
// reaches the structural check it aims at (not the checksum guard).

#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "common/random.h"
#include "core/state_io.h"
#include "graph/generators.h"
#include "graph/subgraph.h"

namespace jxp {
namespace core {
namespace {

class StateIoCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "corrupt_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".jxp";
    Random rng(17);
    graph_ = graph::BarabasiAlbert(120, 3, rng);

    std::vector<graph::PageId> pages_a;
    std::vector<graph::PageId> pages_b;
    for (graph::PageId p = 0; p < 120; ++p) {
      (p % 3 == 0 ? pages_a : pages_b).push_back(p);
    }
    JxpPeer a(0, graph::Subgraph::Induce(graph_, pages_a), 120, options_);
    JxpPeer b(1, graph::Subgraph::Induce(graph_, pages_b), 120, options_);
    for (int i = 0; i < 8; ++i) JxpPeer::Meet(a, b);
    ASSERT_TRUE(SavePeerState(a, path_).ok());

    std::ifstream in(path_);
    std::stringstream buffer;
    buffer << in.rdbuf();
    const std::string content = buffer.str();
    const size_t checksum_pos = content.rfind("checksum ");
    ASSERT_NE(checksum_pos, std::string::npos);
    body_ = content.substr(0, checksum_pos);

    std::string line;
    std::istringstream split(body_);
    while (std::getline(split, line)) lines_.push_back(line);
  }

  void TearDown() override { std::remove(path_.c_str()); }

  size_t FindLine(const std::string& prefix) const {
    for (size_t i = 0; i < lines_.size(); ++i) {
      if (lines_[i].rfind(prefix, 0) == 0) return i;
    }
    ADD_FAILURE() << "no line starts with '" << prefix << "'";
    return 0;
  }

  size_t CountAfter(const std::string& prefix) const {
    const std::string& line = lines_[FindLine(prefix)];
    return std::stoul(line.substr(prefix.size()));
  }

  /// Writes `lines` (joined) plus a *recomputed* checksum.
  void WriteBody(const std::vector<std::string>& lines) const {
    std::string body;
    for (const std::string& line : lines) body += line + "\n";
    std::ofstream out(path_, std::ios::trunc);
    out << body << "checksum " << HashString(body) << "\n";
  }

  /// Writes raw content with no checksum recomputation.
  void WriteRaw(const std::string& content) const {
    std::ofstream out(path_, std::ios::trunc);
    out << content;
  }

  void ExpectCorruption(const std::string& message_part) const {
    auto loaded = LoadPeerState(path_, options_);
    ASSERT_FALSE(loaded.ok()) << "loader accepted a file corrupted for: "
                              << message_part;
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
    EXPECT_NE(loaded.status().message().find(message_part), std::string::npos)
        << "got: " << loaded.status().message();
  }

  /// Applies `mutate` to a copy of the valid lines and writes the result.
  void Mutate(const std::function<void(std::vector<std::string>&)>& mutate) const {
    std::vector<std::string> lines = lines_;
    mutate(lines);
    WriteBody(lines);
  }

  JxpOptions options_;
  graph::Graph graph_;
  std::string path_;
  std::string body_;
  std::vector<std::string> lines_;
};

TEST_F(StateIoCorruptionTest, ValidRewriteStillLoads) {
  // Control: the mutation harness itself (re-join + re-checksum) must not
  // break a valid file.
  Mutate([](std::vector<std::string>&) {});
  auto loaded = LoadPeerState(path_, options_);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
}

TEST_F(StateIoCorruptionTest, MissingChecksum) {
  WriteRaw(body_);
  ExpectCorruption("missing checksum");
}

TEST_F(StateIoCorruptionTest, ChecksumAsFirstLine) {
  // rfind finds position 0; a file that *is* only a checksum line has no body.
  WriteRaw("checksum 12345\n");
  ExpectCorruption("missing checksum");
}

TEST_F(StateIoCorruptionTest, MalformedChecksumLine) {
  WriteRaw(body_ + "checksum notanumber\n");
  ExpectCorruption("malformed checksum line");
}

TEST_F(StateIoCorruptionTest, ChecksumMismatch) {
  WriteRaw(body_ + "checksum " + std::to_string(HashString(body_) + 1) + "\n");
  ExpectCorruption("checksum mismatch");
}

TEST_F(StateIoCorruptionTest, BadMagic) {
  Mutate([](std::vector<std::string>& lines) { lines[0] = "JXPSTATE v2"; });
  ExpectCorruption("bad magic");
}

TEST_F(StateIoCorruptionTest, BadPeerLine) {
  Mutate([this](std::vector<std::string>& lines) {
    lines[FindLine("peer ")] = "peer zero";
  });
  ExpectCorruption("bad peer line");
}

TEST_F(StateIoCorruptionTest, BadGlobalSizeLine) {
  Mutate([this](std::vector<std::string>& lines) {
    lines[FindLine("global_size ")] = "global_size many";
  });
  ExpectCorruption("bad global_size line");
}

TEST_F(StateIoCorruptionTest, BadWorldScoreLine) {
  Mutate([this](std::vector<std::string>& lines) {
    lines[FindLine("world_score ")] = "world_score large";
  });
  ExpectCorruption("bad world_score line");
}

TEST_F(StateIoCorruptionTest, BadPagesLine) {
  Mutate([this](std::vector<std::string>& lines) {
    lines[FindLine("pages ")] = "fragment 40";
  });
  ExpectCorruption("bad pages line");
}

TEST_F(StateIoCorruptionTest, BadPageRecord) {
  Mutate([this](std::vector<std::string>& lines) {
    lines[FindLine("pages ") + 1] = "pagezero 0.5 0";
  });
  ExpectCorruption("bad page record");
}

TEST_F(StateIoCorruptionTest, TruncatedSuccessorList) {
  // An absurd successor count makes the reader run past every following
  // number and fail on the first keyword it meets.
  Mutate([this](std::vector<std::string>& lines) {
    std::string& record = lines[FindLine("pages ") + 1];
    std::istringstream in(record);
    std::string page, score;
    in >> page >> score;
    record = page + " " + score + " 999999";
  });
  ExpectCorruption("truncated successor list");
}

TEST_F(StateIoCorruptionTest, BadWorldEntriesLine) {
  Mutate([this](std::vector<std::string>& lines) {
    std::string& line = lines[FindLine("world_entries ")];
    line = "worldentries" + line.substr(std::string("world_entries").size());
  });
  ExpectCorruption("bad world_entries line");
}

/// Inserts a crafted record as the *first* world entry (bumping the count),
/// so the targeted validation branch runs before any real entry.
void InsertWorldEntry(std::vector<std::string>& lines, size_t header_index,
                      const std::string& record) {
  const std::string prefix = "world_entries ";
  const size_t count = std::stoul(lines[header_index].substr(prefix.size()));
  lines[header_index] = prefix + std::to_string(count + 1);
  lines.insert(lines.begin() + header_index + 1, record);
}

TEST_F(StateIoCorruptionTest, BadWorldEntry) {
  Mutate([this](std::vector<std::string>& lines) {
    InsertWorldEntry(lines, FindLine("world_entries "), "notapage 3 0.1 1 7");
  });
  ExpectCorruption("bad world entry");
}

TEST_F(StateIoCorruptionTest, TruncatedWorldTargets) {
  Mutate([this](std::vector<std::string>& lines) {
    InsertWorldEntry(lines, FindLine("world_entries "), "5 3 0.1 999999 7");
  });
  ExpectCorruption("truncated world targets");
}

TEST_F(StateIoCorruptionTest, HugeCountsAreCorruption) {
  // The checksum is unkeyed, so a crafted file can announce counts no file
  // of its size could hold; each must fail as Corruption before the loader
  // allocates for it.
  const std::string huge = "2000000000000";
  Mutate([&](std::vector<std::string>& lines) { lines[FindLine("pages ")] = "pages " + huge; });
  ExpectCorruption("truncated page table");
  Mutate([&](std::vector<std::string>& lines) {
    std::string& record = lines[FindLine("pages ") + 1];
    std::istringstream in(record);
    std::string page, score;
    in >> page >> score;
    record = page + " " + score + " " + huge;
  });
  ExpectCorruption("truncated successor list");
  Mutate([&](std::vector<std::string>& lines) {
    InsertWorldEntry(lines, FindLine("world_entries "), "5 3 0.1 " + huge + " 7");
  });
  ExpectCorruption("truncated world targets");
}

TEST_F(StateIoCorruptionTest, WorldEntryWithoutTargets) {
  Mutate([this](std::vector<std::string>& lines) {
    InsertWorldEntry(lines, FindLine("world_entries "), "5 3 0.1 0");
  });
  ExpectCorruption("world entry without targets");
}

TEST_F(StateIoCorruptionTest, WorldEntryWithZeroOutDegree) {
  Mutate([this](std::vector<std::string>& lines) {
    InsertWorldEntry(lines, FindLine("world_entries "), "5 0 0.1 1 7");
  });
  ExpectCorruption("world entry with zero out-degree");
}

TEST_F(StateIoCorruptionTest, NegativeWorldEntryScore) {
  Mutate([this](std::vector<std::string>& lines) {
    InsertWorldEntry(lines, FindLine("world_entries "), "5 3 -0.1 1 7");
  });
  ExpectCorruption("negative world entry score");
}

TEST_F(StateIoCorruptionTest, WorldEntriesOutOfPageOrder) {
  // SavePeerState writes entries in strictly ascending page order; a file
  // that lists them otherwise is not one it wrote.
  ASSERT_GE(CountAfter("world_entries "), 2u);
  Mutate([this](std::vector<std::string>& lines) {
    const size_t first = FindLine("world_entries ") + 1;
    std::swap(lines[first], lines[first + 1]);
  });
  ExpectCorruption("world entries out of page order");
  Mutate([this](std::vector<std::string>& lines) {
    const size_t header = FindLine("world_entries ");
    const std::string repeated = lines[header + 1];
    InsertWorldEntry(lines, header, repeated);
  });
  ExpectCorruption("world entries out of page order");
}

TEST_F(StateIoCorruptionTest, MalformedWorldTargets) {
  Mutate([this](std::vector<std::string>& lines) {
    InsertWorldEntry(lines, FindLine("world_entries "), "5 3 0.1 2 9 7");
  });
  ExpectCorruption("world targets out of order");
  Mutate([this](std::vector<std::string>& lines) {
    InsertWorldEntry(lines, FindLine("world_entries "), "5 3 0.1 2 7 7");
  });
  ExpectCorruption("world targets out of order");
  Mutate([this](std::vector<std::string>& lines) {
    InsertWorldEntry(lines, FindLine("world_entries "), "5 1 0.1 2 7 9");
  });
  ExpectCorruption("more world targets than out-degree");
}

TEST_F(StateIoCorruptionTest, WorldEntryForLocalPage) {
  // A two-page peer whose world node holds one of its own pages (with a
  // dangling record for the other): no meeting or re-crawl produces that,
  // since both erase world knowledge of local pages.
  WriteBody({"JXPSTATE v1", "peer 0", "global_size 4", "world_score 0.5", "pages 2",
             "0 0.25 1 1", "1 0.25 0", "world_entries 1", "0 1 0.2 1 1", "dangling 1",
             "1 0.1"});
  ExpectCorruption("world entry for a local page");
}

TEST_F(StateIoCorruptionTest, WorldTargetOutsideTheFragment) {
  // A world entry's targets are the local pages it links to.
  Mutate([this](std::vector<std::string>& lines) {
    std::string& record = lines[FindLine("world_entries ") + 1];
    std::istringstream in(record);
    std::string page, out_degree, score;
    in >> page >> out_degree >> score;
    const graph::PageId external = std::stoul(page) == 1 ? 2 : 1;  // Not a multiple of 3.
    record = page + " " + out_degree + " " + score + " 1 " + std::to_string(external);
  });
  ExpectCorruption("world target outside the fragment");
}

TEST_F(StateIoCorruptionTest, BadDanglingLine) {
  Mutate([this](std::vector<std::string>& lines) {
    std::string& line = lines[FindLine("dangling ")];
    line = "hanging" + line.substr(std::string("dangling").size());
  });
  ExpectCorruption("bad dangling line");
}

/// Appends a crafted dangling record (bumping the count); dangling is the
/// last section, so appending to the end of the body is appending to it.
void AppendDangling(std::vector<std::string>& lines, size_t header_index,
                    const std::string& record) {
  const std::string prefix = "dangling ";
  const size_t count = std::stoul(lines[header_index].substr(prefix.size()));
  lines[header_index] = prefix + std::to_string(count + 1);
  lines.push_back(record);
}

TEST_F(StateIoCorruptionTest, BadDanglingRecord) {
  Mutate([this](std::vector<std::string>& lines) {
    AppendDangling(lines, FindLine("dangling "), "notapage 0.1");
  });
  ExpectCorruption("bad dangling record");
}

TEST_F(StateIoCorruptionTest, NegativeDanglingScore) {
  Mutate([this](std::vector<std::string>& lines) {
    AppendDangling(lines, FindLine("dangling "), "7 -0.25");
  });
  ExpectCorruption("negative dangling score");
}

TEST_F(StateIoCorruptionTest, DanglingPagesOutOfOrder) {
  Mutate([this](std::vector<std::string>& lines) {
    AppendDangling(lines, FindLine("dangling "), "9 0.01");
    AppendDangling(lines, FindLine("dangling "), "8 0.01");
  });
  ExpectCorruption("dangling pages out of order");
  Mutate([this](std::vector<std::string>& lines) {  // A repeated page.
    AppendDangling(lines, FindLine("dangling "), "8 0.01");
    AppendDangling(lines, FindLine("dangling "), "8 0.01");
  });
  ExpectCorruption("dangling pages out of order");
}

TEST_F(StateIoCorruptionTest, DanglingRecordForLocalPage) {
  Mutate([this](std::vector<std::string>& lines) {
    const size_t header = FindLine("dangling ");
    lines.resize(header);
    lines.push_back("dangling 1");
    lines.push_back("3 0.01");  // Page 3 is local (a multiple of 3).
  });
  ExpectCorruption("dangling record for a local page");
}

TEST_F(StateIoCorruptionTest, PeerWithoutPages) {
  Mutate([this](std::vector<std::string>& lines) {
    const size_t pages_at = FindLine("pages ");
    const size_t count = CountAfter("pages ");
    lines[pages_at] = "pages 0";
    lines.erase(lines.begin() + pages_at + 1, lines.begin() + pages_at + 1 + count);
  });
  ExpectCorruption("peer without pages");
}

TEST_F(StateIoCorruptionTest, DuplicatePagesInFragment) {
  Mutate([this](std::vector<std::string>& lines) {
    const size_t pages_at = FindLine("pages ");
    const size_t count = CountAfter("pages ");
    lines[pages_at] = "pages " + std::to_string(count + 1);
    lines.insert(lines.begin() + pages_at + 1, lines[pages_at + 1]);
  });
  ExpectCorruption("duplicate pages in fragment");
}

TEST_F(StateIoCorruptionTest, ImplausibleWorldScore) {
  Mutate([this](std::vector<std::string>& lines) {
    lines[FindLine("world_score ")] = "world_score 1.5";
  });
  ExpectCorruption("implausible scalar state");
  Mutate([this](std::vector<std::string>& lines) {
    lines[FindLine("world_score ")] = "world_score 0";
  });
  ExpectCorruption("implausible scalar state");
}

TEST_F(StateIoCorruptionTest, GlobalSizeSmallerThanFragment) {
  Mutate([this](std::vector<std::string>& lines) {
    lines[FindLine("global_size ")] = "global_size 1";
  });
  ExpectCorruption("implausible scalar state");
}

TEST_F(StateIoCorruptionTest, ImplausibleLocalScore) {
  const auto set_first_score = [this](const std::string& score) {
    Mutate([this, &score](std::vector<std::string>& lines) {
      std::string& record = lines[FindLine("pages ") + 1];
      std::istringstream in(record);
      std::string page, old_score, rest;
      in >> page >> old_score;
      std::getline(in, rest);
      record = page + " " + score + rest;
    });
  };
  set_first_score("1.5");
  ExpectCorruption("implausible local score");
  set_first_score("0");
  ExpectCorruption("implausible local score");
}

TEST_F(StateIoCorruptionTest, LocalScoresMustSumToOneWithTheWorldScore) {
  // Every local score stays inside (0, 1), so only the sum can tell: the
  // scores plus the world score are one distribution, and no solve runs
  // after a load to repair it.
  std::istringstream world_line(lines_[FindLine("world_score ")]);
  std::string keyword;
  double world_score = 0;
  world_line >> keyword >> world_score;
  const auto scale_local_scores = [this](double factor) {
    Mutate([this, factor](std::vector<std::string>& lines) {
      const size_t first = FindLine("pages ") + 1;
      for (size_t i = first; i < first + CountAfter("pages "); ++i) {
        std::istringstream in(lines[i]);
        std::string page, rest;
        double score = 0;
        in >> page >> score;
        std::getline(in, rest);
        ASSERT_LT(score * factor, 1.0);
        std::ostringstream record;
        record.precision(17);
        record << page << " " << score * factor << rest;
        lines[i] = record.str();
      }
    });
  };
  scale_local_scores((1.5 - world_score) / (1.0 - world_score));  // Mass 1.5.
  ExpectCorruption("score mass differs from 1");
  scale_local_scores(0.5);
  ExpectCorruption("score mass differs from 1");
}

}  // namespace
}  // namespace core
}  // namespace jxp
