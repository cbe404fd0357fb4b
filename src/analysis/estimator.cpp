#include "h2priv/analysis/estimator.hpp"

#include <algorithm>

namespace h2priv::analysis {

namespace {

/// Bursts whose body estimate is smaller than this are control chatter, not
/// objects.
constexpr std::size_t kMinBodyBytes = 600;
/// Per-DATA-frame framing overhead to subtract: the 9-byte HTTP/2 frame
/// header, one DATA frame per record in this server's write pattern. A local
/// constant: the adversary reads no h2/ header.
constexpr std::size_t kFrameHeaderBytes = 9;

}  // namespace

std::vector<EstimatedObject> segment_bursts(std::span<const RecordObservation> records,
                                            const BurstConfig& config) {
  std::vector<EstimatedObject> bursts;
  EstimatedObject current;
  bool open = false;

  const auto close_current = [&] {
    if (!open) return;
    // wire bytes exclude the 5-byte record headers; subtract the AEAD tag
    // per record and one HTTP/2 frame header per (DATA) record.
    const std::size_t overhead =
        current.record_count * (tls::kAeadOverhead + kFrameHeaderBytes);
    current.body_estimate =
        current.wire_bytes > overhead ? current.wire_bytes - overhead : 0;
    if (current.body_estimate >= kMinBodyBytes) bursts.push_back(current);
    open = false;
  };

  for (const RecordObservation& rec : records) {
    if (rec.dir != net::Direction::kServerToClient ||
        rec.type != tls::ContentType::kApplicationData) {
      continue;
    }
    const bool is_delimiter = rec.ciphertext_len <= config.delimiter_max_bytes;
    if (open && (is_delimiter || rec.time - current.last_record > config.gap_threshold)) {
      close_current();
    }
    if (is_delimiter) {
      // The header record opens the next burst but contributes no body.
      current = EstimatedObject{};
      current.first_record = rec.time;
      current.last_record = rec.time;
      open = true;
      continue;
    }
    if (!open) {
      current = EstimatedObject{};
      current.first_record = rec.time;
      open = true;
    }
    current.last_record = rec.time;
    ++current.record_count;
    current.wire_bytes += rec.ciphertext_len;
  }
  close_current();
  return bursts;
}

void SizeCatalog::add(std::string label, std::size_t body_size) {
  entries_.push_back(Entry{std::move(label), body_size});
}

std::optional<SizeCatalog::Entry> SizeCatalog::match(std::size_t estimate,
                                                     std::size_t abs_tolerance,
                                                     double frac_tolerance) const {
  const Entry* found = nullptr;
  for (const Entry& e : entries_) {
    const std::size_t tol = std::max(
        abs_tolerance,
        static_cast<std::size_t>(frac_tolerance * static_cast<double>(e.body_size)));
    const std::size_t lo = e.body_size > tol ? e.body_size - tol : 0;
    const std::size_t hi = e.body_size + tol;
    if (estimate >= lo && estimate <= hi) {
      if (found != nullptr) return std::nullopt;  // ambiguous
      found = &e;
    }
  }
  if (found == nullptr) return std::nullopt;
  return *found;
}

}  // namespace h2priv::analysis
