#include "core/state_io.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <functional>
#include <fstream>
#include <sstream>

#include "common/hash.h"

namespace jxp {
namespace core {

namespace {

constexpr char kMagic[] = "JXPSTATE v1";

/// How far the local scores plus the world score may sum from 1; a solve
/// leaves them within a few ulps of it.
constexpr double kMassTolerance = 1e-9;

uint64_t ChecksumOf(const std::string& body) {
  return HashString(body);
}

}  // namespace

Status SavePeerState(const JxpPeer& peer, const std::string& path) {
  std::ostringstream body;
  body.precision(17);
  body << kMagic << "\n";
  body << "peer " << peer.id() << "\n";
  body << "global_size " << peer.global_size() << "\n";
  body << "world_score " << peer.world_score() << "\n";

  const graph::Subgraph& fragment = peer.fragment();
  body << "pages " << fragment.NumLocalPages() << "\n";
  for (graph::Subgraph::LocalIndex i = 0; i < fragment.NumLocalPages(); ++i) {
    body << fragment.GlobalId(i) << " " << peer.local_scores()[i];
    const auto successors = fragment.Successors(i);
    body << " " << successors.size();
    for (graph::PageId s : successors) body << " " << s;
    body << "\n";
  }

  // The world node is sorted by page, so the file is a function of the
  // peer's state, not of the meeting history that produced it.
  const wire::WorldColumns& world = peer.world_node().columns();
  body << "world_entries " << world.NumEntries() << "\n";
  for (size_t e = 0; e < world.NumEntries(); ++e) {
    const std::span<const graph::PageId> targets = world.Targets(e);
    body << world.pages[e] << " " << world.out_degrees[e] << " " << world.scores[e] << " "
         << targets.size();
    for (graph::PageId t : targets) body << " " << t;
    body << "\n";
  }
  body << "dangling " << world.dangling_pages.size() << "\n";
  for (size_t d = 0; d < world.dangling_pages.size(); ++d) {
    body << world.dangling_pages[d] << " " << world.dangling_scores[d] << "\n";
  }

  const std::string content = body.str();
  const std::string temp_path = path + ".tmp";
  {
    std::ofstream out(temp_path, std::ios::trunc);
    if (!out) return Status::IOError("cannot open " + temp_path + " for writing");
    out << content << "checksum " << ChecksumOf(content) << "\n";
    out.flush();
    if (!out) return Status::IOError("write error on " + temp_path);
  }
  if (std::rename(temp_path.c_str(), path.c_str()) != 0) {
    return Status::IOError("cannot rename " + temp_path + " to " + path);
  }
  return Status::OK();
}

StatusOr<JxpPeer> LoadPeerState(const std::string& path, const JxpOptions& options) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return Status::IOError("read error on " + path);
  const std::string content = buffer.str();

  // Split off and verify the checksum line.
  const size_t checksum_pos = content.rfind("checksum ");
  if (checksum_pos == std::string::npos || checksum_pos == 0) {
    return Status::Corruption(path + ": missing checksum");
  }
  const std::string body = content.substr(0, checksum_pos);
  uint64_t stored = 0;
  if (std::sscanf(content.c_str() + checksum_pos, "checksum %" SCNu64, &stored) != 1) {
    return Status::Corruption(path + ": malformed checksum line");
  }
  if (stored != ChecksumOf(body)) {
    return Status::Corruption(path + ": checksum mismatch");
  }

  std::istringstream parse(body);
  // Every announced record takes at least one byte of the body, so a count
  // beyond the unread bytes cannot be honest; it fails before allocating.
  const auto exceeds_unread = [&](size_t count) {
    const std::streamoff at = parse.tellg();  // -1 once the body is used up.
    return count > (at < 0 ? 0 : body.size() - static_cast<size_t>(at));
  };
  std::string line;
  if (!std::getline(parse, line) || line != kMagic) {
    return Status::Corruption(path + ": bad magic");
  }
  std::string keyword;
  uint32_t peer_id = 0;
  size_t global_size = 0;
  double world_score = 0;
  size_t num_pages = 0;
  if (!(parse >> keyword >> peer_id) || keyword != "peer") {
    return Status::Corruption(path + ": bad peer line");
  }
  if (!(parse >> keyword >> global_size) || keyword != "global_size") {
    return Status::Corruption(path + ": bad global_size line");
  }
  if (!(parse >> keyword >> world_score) || keyword != "world_score") {
    return Status::Corruption(path + ": bad world_score line");
  }
  if (!(parse >> keyword >> num_pages) || keyword != "pages") {
    return Status::Corruption(path + ": bad pages line");
  }
  if (exceeds_unread(num_pages)) return Status::Corruption(path + ": truncated page table");
  std::vector<graph::PageId> pages(num_pages);
  std::vector<double> scores(num_pages);
  std::vector<std::vector<graph::PageId>> successors(num_pages);
  for (size_t i = 0; i < num_pages; ++i) {
    size_t count = 0;
    if (!(parse >> pages[i] >> scores[i] >> count)) {
      return Status::Corruption(path + ": bad page record");
    }
    if (exceeds_unread(count)) {
      return Status::Corruption(path + ": truncated successor list");
    }
    successors[i].resize(count);
    for (size_t j = 0; j < count; ++j) {
      if (!(parse >> successors[i][j])) {
        return Status::Corruption(path + ": truncated successor list");
      }
    }
  }

  if (num_pages == 0) return Status::Corruption(path + ": peer without pages");
  graph::Subgraph fragment =
      graph::Subgraph::FromKnowledge(std::move(pages), std::move(successors));
  if (fragment.NumLocalPages() != num_pages) {
    return Status::Corruption(path + ": duplicate pages in fragment");
  }

  // Every path that changes the world node keeps it outside the fragment:
  // world entries and dangling records are external pages, and a world
  // entry's targets are the local pages it links to.
  WorldNode world;
  size_t num_entries = 0;
  if (!(parse >> keyword >> num_entries) || keyword != "world_entries") {
    return Status::Corruption(path + ": bad world_entries line");
  }
  for (size_t e = 0; e < num_entries; ++e) {
    graph::PageId page = 0;
    uint32_t out_degree = 0;
    double score = 0;
    size_t count = 0;
    if (!(parse >> page >> out_degree >> score >> count)) {
      return Status::Corruption(path + ": bad world entry");
    }
    if (exceeds_unread(count)) return Status::Corruption(path + ": truncated world targets");
    std::vector<graph::PageId> targets(count);
    for (size_t j = 0; j < count; ++j) {
      if (!(parse >> targets[j])) {
        return Status::Corruption(path + ": truncated world targets");
      }
    }
    if (count == 0) return Status::Corruption(path + ": world entry without targets");
    // Validate before WorldNode::Append: its invariants are JXP_CHECKs, and
    // a tampered file must surface as Corruption, not a process abort.
    if (out_degree == 0) {
      return Status::Corruption(path + ": world entry with zero out-degree");
    }
    if (!(score >= 0)) {
      return Status::Corruption(path + ": negative world entry score");
    }
    // SavePeerState writes the world node's own layout: entries in strictly
    // ascending page order, each with strictly ascending targets.
    const std::vector<graph::PageId>& known = world.columns().pages;
    if (!known.empty() && known.back() >= page) {
      return Status::Corruption(path + ": world entries out of page order");
    }
    if (targets.size() > out_degree) {
      return Status::Corruption(path + ": more world targets than out-degree");
    }
    if (std::adjacent_find(targets.begin(), targets.end(), std::greater_equal<>()) !=
        targets.end()) {
      return Status::Corruption(path + ": world targets out of order");
    }
    if (fragment.Contains(page)) {
      return Status::Corruption(path + ": world entry for a local page");
    }
    for (graph::PageId target : targets) {
      if (!fragment.Contains(target)) {
        return Status::Corruption(path + ": world target outside the fragment");
      }
    }
    if (world.NumLinks() + targets.size() > WorldNode::kMaxLinks) {
      return Status::Corruption(path + ": world links exceed 32-bit offsets");
    }
    world.Append(page, out_degree, score, targets);
  }
  size_t num_dangling = 0;
  if (!(parse >> keyword >> num_dangling) || keyword != "dangling") {
    return Status::Corruption(path + ": bad dangling line");
  }
  for (size_t d = 0; d < num_dangling; ++d) {
    graph::PageId page = 0;
    double score = 0;
    if (!(parse >> page >> score)) {
      return Status::Corruption(path + ": bad dangling record");
    }
    if (!(score >= 0)) {
      return Status::Corruption(path + ": negative dangling score");
    }
    const std::vector<graph::PageId>& known = world.columns().dangling_pages;
    if (!known.empty() && known.back() >= page) {
      return Status::Corruption(path + ": dangling pages out of order");
    }
    world.AppendDangling(page, score);
  }
  for (graph::PageId page : world.columns().dangling_pages) {
    if (fragment.Contains(page)) {
      return Status::Corruption(path + ": dangling record for a local page");
    }
  }

  // Scores were written in fragment order (sorted by global id), which
  // FromKnowledge preserves.
  if (!(world_score > 0) || world_score >= 1 || global_size < num_pages) {
    return Status::Corruption(path + ": implausible scalar state");
  }
  double mass = world_score;
  for (double s : scores) {
    // JXP scores live in (0, 1): they are entries of a (sub-)stochastic
    // distribution and the restore constructor assumes a positive score sum.
    if (!(s > 0) || s >= 1) {
      return Status::Corruption(path + ": implausible local score");
    }
    mass += s;
  }
  // With the world score they form the last solve's distribution, and no
  // solve runs after a load to repair a file whose mass is off.
  if (!(std::abs(mass - 1.0) <= kMassTolerance)) {
    return Status::Corruption(path + ": score mass differs from 1");
  }
  return JxpPeer(peer_id, std::move(fragment), global_size, options, std::move(scores),
                 std::move(world), world_score);
}

}  // namespace core
}  // namespace jxp
