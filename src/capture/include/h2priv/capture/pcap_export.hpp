// Synthesizes a structurally valid libpcap capture from a stored trace's
// packet observations, so any .h2t trace opens in Wireshark/tshark — the paper's
// own tooling. The simulator's wire format is not IP, so Ethernet + IPv4 +
// TCP headers are reconstructed: addresses/ports are fixed per direction
// (10.0.0.1:49152 <-> 10.0.0.2:443), seq/ack/flags come from the
// observation, payload bytes are zeros of the observed length (record
// bodies are never stored), and both IP and TCP checksums are
// computed so dissectors raise no errors.
#pragma once

#include <cstdint>
#include <string>

#include "h2priv/capture/trace_view.hpp"

namespace h2priv::capture {

/// Nanosecond-resolution libpcap magic (0xA1B23C4D), written little-endian.
inline constexpr std::uint32_t kPcapMagicNanos = 0xA1B23C4D;
inline constexpr std::size_t kPcapGlobalHeaderBytes = 24;
inline constexpr std::size_t kPcapRecordHeaderBytes = 16;
/// Ethernet(14) + IPv4(20) + TCP(20) synthesized in front of each payload.
inline constexpr std::size_t kSynthHeaderBytes = 54;

/// Drains `packets` into a libpcap file at `path` (linktype 1, Ethernet),
/// one record at a time, so memory stays O(one packet). Negative timestamps
/// are clamped to zero. Returns the number of packets written; throws
/// TraceError on a malformed packet section or an I/O failure.
std::uint64_t export_pcap(PacketCursor packets, const std::string& path);

}  // namespace h2priv::capture
