#include "h2priv/capture/pcap_export.hpp"

#include <array>
#include <fstream>

#include "h2priv/capture/trace_format.hpp"
#include "h2priv/tcp/segment.hpp"

namespace h2priv::capture {

namespace {

// libpcap is written in host order by convention; we fix little-endian and
// let readers detect it from the magic, so the ByteWriter's big-endian
// helpers don't apply here.
void le16(util::ByteWriter& w, std::uint16_t v) {
  w.u8(static_cast<std::uint8_t>(v));
  w.u8(static_cast<std::uint8_t>(v >> 8));
}

void le32(util::ByteWriter& w, std::uint32_t v) {
  w.u8(static_cast<std::uint8_t>(v));
  w.u8(static_cast<std::uint8_t>(v >> 8));
  w.u8(static_cast<std::uint8_t>(v >> 16));
  w.u8(static_cast<std::uint8_t>(v >> 24));
}

/// RFC 1071 internet checksum over big-endian 16-bit words.
[[nodiscard]] std::uint16_t inet_checksum(util::BytesView data,
                                          std::uint32_t seed_sum = 0) {
  std::uint32_t sum = seed_sum;
  std::size_t i = 0;
  for (; i + 1 < data.size(); i += 2) {
    sum += static_cast<std::uint32_t>(data[i]) << 8 | data[i + 1];
  }
  if (i < data.size()) sum += static_cast<std::uint32_t>(data[i]) << 8;
  while ((sum >> 16) != 0) sum = (sum & 0xffff) + (sum >> 16);
  return static_cast<std::uint16_t>(~sum);
}

struct Endpoints {
  std::array<std::uint8_t, 4> src_ip;
  std::array<std::uint8_t, 4> dst_ip;
  std::uint16_t src_port;
  std::uint16_t dst_port;
  std::uint8_t src_mac_tail;  // 02:00:00:00:00:XX
  std::uint8_t dst_mac_tail;
};

[[nodiscard]] Endpoints endpoints_for(net::Direction dir) noexcept {
  constexpr std::array<std::uint8_t, 4> kClientIp = {10, 0, 0, 1};
  constexpr std::array<std::uint8_t, 4> kServerIp = {10, 0, 0, 2};
  constexpr std::uint16_t kClientPort = 49152;
  constexpr std::uint16_t kServerPort = 443;
  if (dir == net::Direction::kClientToServer) {
    return {kClientIp, kServerIp, kClientPort, kServerPort, 0x01, 0x02};
  }
  return {kServerIp, kClientIp, kServerPort, kClientPort, 0x02, 0x01};
}

/// Maps the simulator's flag bits onto real TCP header bits.
[[nodiscard]] std::uint8_t tcp_wire_flags(std::uint8_t sim_flags) noexcept {
  std::uint8_t f = 0;
  if ((sim_flags & tcp::kFlagFin) != 0) f |= 0x01;
  if ((sim_flags & tcp::kFlagSyn) != 0) f |= 0x02;
  if ((sim_flags & tcp::kFlagRst) != 0) f |= 0x04;
  if ((sim_flags & tcp::kFlagAck) != 0) f |= 0x10;
  return f;
}

void put_global_header(util::ByteWriter& w) {
  le32(w, kPcapMagicNanos);
  le16(w, 2);           // version major
  le16(w, 4);           // version minor
  le32(w, 0);           // thiszone
  le32(w, 0);           // sigfigs
  le32(w, 262144);      // snaplen
  le32(w, 1);           // linktype: LINKTYPE_ETHERNET
}

/// One pcap record: record header, synthesized Ethernet/IPv4/TCP headers,
/// then `p.payload_len` zero bytes.
void put_record(util::ByteWriter& w, const analysis::PacketObservation& p,
                std::uint16_t ip_id) {
  const std::int64_t t = p.time.ns < 0 ? 0 : p.time.ns;
  const auto frame_len =
      static_cast<std::uint32_t>(kSynthHeaderBytes + p.payload_len);
  le32(w, static_cast<std::uint32_t>(t / 1'000'000'000));
  le32(w, static_cast<std::uint32_t>(t % 1'000'000'000));
  le32(w, frame_len);  // incl_len (nothing truncated)
  le32(w, frame_len);  // orig_len

  const Endpoints ep = endpoints_for(p.dir);

  // Ethernet II: locally-administered MACs, EtherType IPv4.
  const std::array<std::uint8_t, 5> mac_prefix = {0x02, 0x00, 0x00, 0x00, 0x00};
  w.bytes(util::BytesView{mac_prefix.data(), mac_prefix.size()});
  w.u8(ep.dst_mac_tail);
  w.bytes(util::BytesView{mac_prefix.data(), mac_prefix.size()});
  w.u8(ep.src_mac_tail);
  w.u16(0x0800);

  // IPv4 + TCP are big-endian on the wire — ByteWriter's native order.
  // Both are built in a scratch writer first so checksums can be computed
  // over the exact bytes.
  const auto ip_total = static_cast<std::uint16_t>(20 + 20 + p.payload_len);
  util::ByteWriter ip(20);
  ip.u8(0x45);           // version 4, IHL 5
  ip.u8(0);              // DSCP/ECN
  ip.u16(ip_total);
  ip.u16(ip_id);
  ip.u16(0x4000);        // DF, fragment offset 0
  ip.u8(64);             // TTL
  ip.u8(6);              // protocol: TCP
  ip.u16(0);             // checksum placeholder
  ip.bytes(util::BytesView{ep.src_ip.data(), ep.src_ip.size()});
  ip.bytes(util::BytesView{ep.dst_ip.data(), ep.dst_ip.size()});
  const std::uint16_t ip_csum = inet_checksum(ip.view());
  util::Bytes ip_hdr{ip.view().begin(), ip.view().end()};
  ip_hdr[10] = static_cast<std::uint8_t>(ip_csum >> 8);
  ip_hdr[11] = static_cast<std::uint8_t>(ip_csum);
  w.bytes(util::BytesView{ip_hdr.data(), ip_hdr.size()});

  util::ByteWriter tcp_hdr(20);
  tcp_hdr.u16(ep.src_port);
  tcp_hdr.u16(ep.dst_port);
  tcp_hdr.u32(static_cast<std::uint32_t>(p.seq));  // 64-bit sim seq, truncated
  tcp_hdr.u32(static_cast<std::uint32_t>(p.ack));
  tcp_hdr.u8(0x50);                                // data offset 5, no options
  tcp_hdr.u8(tcp_wire_flags(p.flags));
  tcp_hdr.u16(65535);                              // window
  tcp_hdr.u16(0);                                  // checksum placeholder
  tcp_hdr.u16(0);                                  // urgent pointer

  // TCP checksum: pseudo-header + header + payload. The payload is all
  // zeros (record bodies are never stored), so it contributes nothing.
  std::uint32_t pseudo = 0;
  pseudo += static_cast<std::uint32_t>(ep.src_ip[0]) << 8 | ep.src_ip[1];
  pseudo += static_cast<std::uint32_t>(ep.src_ip[2]) << 8 | ep.src_ip[3];
  pseudo += static_cast<std::uint32_t>(ep.dst_ip[0]) << 8 | ep.dst_ip[1];
  pseudo += static_cast<std::uint32_t>(ep.dst_ip[2]) << 8 | ep.dst_ip[3];
  pseudo += 6;  // protocol
  pseudo += static_cast<std::uint32_t>(20 + p.payload_len);  // TCP length
  const std::uint16_t tcp_csum = inet_checksum(tcp_hdr.view(), pseudo);
  util::Bytes tcp_bytes{tcp_hdr.view().begin(), tcp_hdr.view().end()};
  tcp_bytes[16] = static_cast<std::uint8_t>(tcp_csum >> 8);
  tcp_bytes[17] = static_cast<std::uint8_t>(tcp_csum);
  w.bytes(util::BytesView{tcp_bytes.data(), tcp_bytes.size()});

  w.fill(p.payload_len, 0);
}

void write_out(std::ofstream& out, util::BytesView bytes) {
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

}  // namespace

std::uint64_t export_pcap(PacketCursor packets, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw TraceError("cannot open pcap for writing: " + path);
  util::ByteWriter w(kPcapGlobalHeaderBytes);
  put_global_header(w);
  write_out(out, w.view());
  std::uint64_t written = 0;
  std::uint16_t ip_id = 0;
  analysis::PacketObservation p;
  while (packets.next(p)) {
    w.clear();
    put_record(w, p, ip_id++);
    write_out(out, w.view());
    ++written;
  }
  out.flush();
  if (!out) throw TraceError("pcap write failed: " + path);
  return written;
}

}  // namespace h2priv::capture
