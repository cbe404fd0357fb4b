// Simulator-side oracle: which server->client TCP stream bytes belong to
// which response instance. The adversary NEVER sees this — it exists to
// compute the paper's "degree of multiplexing" metric and to score the
// adversary's predictions.
//
// A *response instance* is one served copy of an object on one HTTP/2
// stream. Re-requested copies (the paper's "retransmitted objects") are
// separate instances of the same object and interleave with each other —
// exactly the effect Sections IV-B/IV-C wrestle with.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "h2priv/h2/connection.hpp"
#include "h2priv/web/site.hpp"

namespace h2priv::analysis {

using InstanceId = std::uint64_t;

struct ByteInterval {
  std::uint64_t begin = 0;  // TCP stream offset (server->client), half-open
  std::uint64_t end = 0;
  [[nodiscard]] std::uint64_t size() const noexcept { return end - begin; }
};

struct ResponseInstance {
  InstanceId id = 0;
  web::ObjectId object_id = 0;
  std::uint32_t stream_id = 0;
  bool duplicate = false;  ///< a re-request copy, not the first serving
  std::vector<ByteInterval> data;     // DATA frame wire ranges
  std::vector<ByteInterval> headers;  // HEADERS frame wire ranges
  bool complete = false;              // served to END_STREAM

  [[nodiscard]] std::uint64_t data_bytes() const noexcept;
  /// [first data byte, last data byte) — empty nullopt if no data recorded.
  [[nodiscard]] std::optional<ByteInterval> span() const noexcept;
};

class GroundTruth {
 public:
  GroundTruth() = default;
  /// Adopts fully built instances (a decoded trace's), numbering their ids
  /// 1..n in order, as register_instance would have.
  explicit GroundTruth(std::vector<ResponseInstance> instances);

  InstanceId register_instance(web::ObjectId object, std::uint32_t stream_id,
                               bool duplicate);
  void record_data(InstanceId id, h2::WireSpan span);
  void record_headers(InstanceId id, h2::WireSpan span);
  void mark_complete(InstanceId id);

  [[nodiscard]] const std::vector<ResponseInstance>& instances() const noexcept {
    return instances_;
  }
  [[nodiscard]] const ResponseInstance& instance(InstanceId id) const;

  /// First (non-duplicate) instance of an object, if any.
  [[nodiscard]] const ResponseInstance* primary_instance(web::ObjectId object) const;
  /// All instances (copies included) of an object.
  [[nodiscard]] std::vector<const ResponseInstance*> instances_of(
      web::ObjectId object) const;

  /// The two DoM queries below each build a MultiplexingIndex for one
  /// answer. A caller asking many of them (a scoring pass) builds the index
  /// once and asks it instead.
  [[nodiscard]] double degree_of_multiplexing(InstanceId id) const;
  [[nodiscard]] std::optional<double> object_dom(web::ObjectId object) const;

 private:
  std::vector<ResponseInstance> instances_;
};

/// The paper's degree of multiplexing (DoM) over one ground truth: each
/// instance's data span is computed once and the spans are sorted by start.
/// A query merges every span except the queried instance's own and counts
/// the instance's DATA bytes the merged runs cover. `truth` must outlive the
/// index and not change while it is in use.
class MultiplexingIndex {
 public:
  explicit MultiplexingIndex(const GroundTruth& truth);
  explicit MultiplexingIndex(GroundTruth&&) = delete;  // the index would dangle

  /// The fraction of this instance's DATA bytes that lie within the
  /// transmission span of some *other* instance on the same TCP stream.
  /// 0 == fully serialized; ~1 == thoroughly interleaved.
  [[nodiscard]] double degree_of_multiplexing(InstanceId id) const;

  /// DoM of the object's primary instance; nullopt if never served.
  [[nodiscard]] std::optional<double> object_dom(web::ObjectId object) const;

  /// True if *any* complete instance of the object was fully serialized.
  /// (Fig. 5's "success attributable to a retransmitted copy" counts these.)
  [[nodiscard]] bool any_serialized_instance(web::ObjectId object) const;

 private:
  struct Span {
    ByteInterval bytes;
    InstanceId id = 0;
  };
  const GroundTruth& truth_;
  std::vector<Span> spans_;  // instances with data, by bytes.begin
};

}  // namespace h2priv::analysis
