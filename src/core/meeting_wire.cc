#include "core/meeting_wire.h"

#include <utility>

namespace jxp {
namespace core {

std::vector<uint8_t> EncodeMeetingMessage(const graph::Subgraph& fragment,
                                          std::span<const double> scores,
                                          const WorldNode& world) {
  std::vector<uint8_t> out;
  wire::EncodeScoreList(fragment, scores, out);
  // The world node keeps the codec's page-sorted layout: encoded in place.
  wire::EncodeWorldKnowledge(world.columns(), out);
  return out;
}

DecodedMeetingMessage DecodeMeetingMessage(std::span<const uint8_t> bytes) {
  wire::DecodedMeeting decoded = wire::DecodeMeeting(bytes);
  DecodedMeetingMessage result;
  result.bytes_consumed = decoded.bytes_consumed;
  result.error = std::move(decoded.error);

  // The codec validated what it returns (ascending pages, ascending
  // successor and target lists, 1 <= |targets| <= out-degree), which is
  // exactly the canonical form the fragment and the world node keep: both
  // adopt the columns without re-sorting.
  wire::PageTableColumns& table = decoded.page_table;
  if (!table.pages.empty()) {
    result.fragment = std::make_shared<graph::Subgraph>(graph::Subgraph::FromSortedCsr(
        std::move(table.pages), std::move(table.successor_offsets),
        std::move(table.successors)));
    result.scores = std::move(table.scores);
  }
  result.world = WorldNode(std::move(decoded.world));
  return result;
}

}  // namespace core
}  // namespace jxp
