#include "h2priv/tcp/connection.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "h2priv/util/narrow.hpp"

namespace h2priv::tcp {

namespace {

constexpr std::uint32_t kMss = 1452;
constexpr std::uint32_t kRecvWindow = 256 * 1024;
// A peer may fill the whole advertised window out of order; reassembly
// drops what lies beyond kMaxWindow, so the window must stay below it.
static_assert(Reassembly::kMaxWindow > kRecvWindow);
constexpr int kDupAckThreshold = 3;
constexpr std::uint32_t kInitialWindowSegments = 10;

}  // namespace

Connection::Connection(sim::Simulator& sim, TcpConfig config)
    : sim_(sim),
      config_(config),
      cc_(CongestionConfig{.mss = kMss,
                           .initial_window_segments = kInitialWindowSegments,
                           .min_window_segments = 1,
                           .initial_ssthresh = UINT64_MAX}),
      rto_(config.rto) {}

Connection::~Connection() { cancel_retx_timer(); }

void Connection::connect() {
  if (state_ != State::kClosed) throw std::logic_error("connect(): not CLOSED");
  if (!out_) throw std::logic_error("connect(): segment sink not wired");
  state_ = State::kSynSent;
  SegmentView syn;
  syn.flags = kFlagSyn;
  syn.seq = 0;
  snd_nxt_ = 1;
  emit(syn);
  arm_retx_timer();
}

void Connection::listen() {
  if (state_ != State::kClosed) throw std::logic_error("listen(): not CLOSED");
  if (!out_) throw std::logic_error("listen(): segment sink not wired");
  state_ = State::kListen;
}

std::uint64_t Connection::send(util::BytesView data) {
  if (state_ == State::kClosed) {
    throw std::logic_error("tcp::send: connection not writable");
  }
  if (static_cast<std::int64_t>(data.size()) > send_capacity()) {
    throw std::length_error("tcp::send: exceeds send buffer limit");
  }
  const std::uint64_t offset = send_buf_.append(data);
  obs_->sample(obs::Hist::kTcpSendBufOccupancy, send_buf_.outstanding());
  obs_->gauge_max(obs::Gauge::kTcpSendBufferBytes, send_buf_.outstanding());
  const std::uint64_t sent_offset =
      snd_nxt_ > 0 ? std::min(offset_of(snd_nxt_), send_buf_.end()) : 0;
  if (static_cast<std::int64_t>(send_buf_.end() - sent_offset) >= kWritableWatermark) {
    was_unwritable_ = true;
  }
  pump();
  return offset;
}

std::int64_t Connection::send_capacity() const noexcept {
  const std::uint64_t sent_offset =
      snd_nxt_ > 0 ? std::min(offset_of(snd_nxt_), send_buf_.end()) : 0;
  const auto unsent = static_cast<std::int64_t>(send_buf_.end() - sent_offset);
  return std::max<std::int64_t>(0, kSendBufferLimit - unsent);
}

std::uint32_t Connection::advertised_window() const noexcept {
  const auto buffered = static_cast<std::uint32_t>(
      std::min<std::size_t>(reassembly_.buffered_bytes(), kRecvWindow));
  return kRecvWindow - buffered;
}

std::uint64_t Connection::effective_window() const noexcept {
  std::uint64_t wnd = cc_.cwnd();
  if (in_recovery_) wnd += recovery_inflation_;
  return std::min<std::uint64_t>(wnd, rwnd_peer_);
}

void Connection::emit(SegmentView s) {
  s.src_port = config_.local_port;
  s.dst_port = config_.remote_port;
  s.window = advertised_window();
  obs_->add(obs::Counter::kTcpSegmentsSent);
  // One pooled chunk per segment: header + payload serialise straight into
  // it, and the chunk rides the Packet all the way to the receiving
  // endpoint before returning to this thread's pool.
  util::ByteWriter w(util::default_pool(), kHeaderBytes + s.payload.size());
  encode_segment(w, s);
  out_(w.take_shared());
}

void Connection::send_ack() {
  SegmentView ack;
  ack.flags = kFlagAck;
  ack.seq = snd_nxt_;
  ack.ack = reassembly_.rcv_nxt();
  emit(ack);
}

void Connection::pump() {
  if (state_ != State::kEstablished || snd_nxt_ == 0) return;

  // RFC 2861: an idle sender must not dump a stale, possibly huge window
  // onto the network — restart from the initial window.
  if (snd_una_ == snd_nxt_ && last_send_activity_.ns != 0 &&
      sim_.now() - last_send_activity_ > rto_.rto() &&
      offset_of(snd_nxt_) < send_buf_.end()) {
    cc_ = RenoCongestion(
        CongestionConfig{.mss = kMss,
                         .initial_window_segments = kInitialWindowSegments,
                         .min_window_segments = 1,
                         .initial_ssthresh = cc_.ssthresh()});
  }

  bool sent_any = false;
  for (;;) {
    const std::uint64_t inflight = snd_nxt_ - snd_una_;
    const std::uint64_t wnd = effective_window();
    if (inflight >= wnd) break;
    const std::uint64_t next_offset = offset_of(snd_nxt_);
    if (next_offset >= send_buf_.end()) break;  // all data transmitted
    const std::uint64_t room = wnd - inflight;
    const std::size_t n = static_cast<std::size_t>(std::min<std::uint64_t>(
        {kMss, room, send_buf_.end() - next_offset}));
    if (n == 0) break;
    SegmentView seg;
    seg.flags = kFlagAck;
    seg.seq = snd_nxt_;
    seg.ack = reassembly_.rcv_nxt();
    seg.payload = send_buf_.read_view(next_offset, n);
    if (!timing_active_) {
      timing_active_ = true;
      timed_end_seq_ = snd_nxt_ + n;
      timed_at_ = sim_.now();
    }
    snd_nxt_ += n;
    emit(seg);
    last_send_activity_ = sim_.now();
    sent_any = true;
  }
  if (sent_any && !retx_timer_.valid()) arm_retx_timer();
  maybe_fire_writable();
}

void Connection::maybe_fire_writable() {
  if (!was_unwritable_) return;
  const std::uint64_t sent_offset =
      snd_nxt_ > 0 ? std::min(offset_of(snd_nxt_), send_buf_.end()) : 0;
  const auto unsent = static_cast<std::int64_t>(send_buf_.end() - sent_offset);
  if (unsent < kWritableWatermark) {
    was_unwritable_ = false;
    if (on_writable) on_writable();
  }
}

void Connection::retransmit_head() {
  timing_active_ = false;  // Karn: never time a retransmitted range
  if (state_ == State::kSynSent) {
    SegmentView syn;
    syn.flags = kFlagSyn;
    syn.seq = 0;
    emit(syn);
    return;
  }
  if (state_ == State::kSynRcvd) {
    SegmentView synack;
    synack.flags = kFlagSyn | kFlagAck;
    synack.seq = 0;
    synack.ack = 1;
    emit(synack);
    return;
  }
  const std::uint64_t off = offset_of(std::max<std::uint64_t>(snd_una_, 1));
  if (off < send_buf_.end()) {
    const std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>(kMss, send_buf_.end() - off));
    SegmentView seg;
    seg.flags = kFlagAck;
    seg.seq = seq_of(off);
    seg.ack = reassembly_.rcv_nxt();
    seg.payload = send_buf_.read_view(off, n);
    emit(seg);
  }
}

void Connection::arm_retx_timer() {
  cancel_retx_timer();
  retx_timer_ = sim_.schedule(rto_.rto(), [this] {
    retx_timer_ = {};
    on_retx_timeout();
  });
}

void Connection::cancel_retx_timer() {
  if (retx_timer_.valid()) {
    sim_.cancel(retx_timer_);
    retx_timer_ = {};
  }
}

void Connection::on_retx_timeout() {
  if (state_ == State::kClosed) return;
  if (snd_una_ == snd_nxt_ && state_ != State::kSynSent && state_ != State::kSynRcvd) {
    return;  // everything acked while the timer was in flight
  }
  ++retries_;
  if (retries_ > config_.max_retries) {
    // The path is effectively dead: this is the paper's "broken connection".
    SegmentView rst;
    rst.flags = kFlagRst;
    rst.seq = snd_nxt_;
    emit(rst);
    finish(CloseReason::kBroken);
    return;
  }
  ++stats_.retransmits_timeout;
  obs_->add(obs::Counter::kTcpRetransmitsTimeout);
  obs_->add(obs::Counter::kTcpRtoFired);
  obs_->add(obs::Counter::kTcpRtoBackoffs);
  rto_.backoff();
  cc_.on_timeout();
  obs_->sample(obs::Hist::kTcpCwndBytes, cc_.cwnd());
  in_recovery_ = false;
  dup_acks_ = 0;
  recovery_inflation_ = 0;
  recover_ = snd_nxt_;
  retransmit_head();
  arm_retx_timer();
}

void Connection::enter_established() {
  state_ = State::kEstablished;
  cancel_retx_timer();
  retries_ = 0;
  if (on_established) on_established();
  pump();
}

void Connection::finish(CloseReason reason) {
  if (state_ == State::kClosed) return;
  state_ = State::kClosed;
  cancel_retx_timer();
  if (on_closed) on_closed(reason);
}

void Connection::on_wire(util::BytesView wire) {
  if (state_ == State::kClosed) return;
  const SegmentView s = peek(wire);
  obs_->add(obs::Counter::kTcpSegmentsReceived);

  if (s.rst()) {
    if (state_ != State::kListen) finish(CloseReason::kReset);
    return;
  }

  switch (state_) {
    case State::kListen:
      if (s.syn() && !s.has_ack()) {
        peer_syn_seen_ = true;
        state_ = State::kSynRcvd;
        SegmentView synack;
        synack.flags = kFlagSyn | kFlagAck;
        synack.seq = 0;
        synack.ack = 1;
        snd_nxt_ = 1;
        emit(synack);
        arm_retx_timer();
      }
      return;

    case State::kSynSent:
      if (s.syn() && s.has_ack() && s.ack == 1) {
        peer_syn_seen_ = true;
        snd_una_ = 1;
        rwnd_peer_ = s.window;
        enter_established();
        send_ack();
      }
      return;

    case State::kSynRcvd:
      if (s.has_ack() && s.ack >= 1) {
        snd_una_ = std::max<std::uint64_t>(snd_una_, 1);
        enter_established();
        // Fall through to normal processing of any piggybacked data.
        handle_ack(s);
        handle_data(s);
      }
      return;

    default:
      if (s.syn()) {
        // A retransmitted SYN-ACK means our final handshake ACK was lost;
        // re-ACK or the peer stays stuck in SYN_RCVD.
        send_ack();
        return;
      }
      handle_ack(s);
      handle_data(s);
      return;
  }
}

void Connection::handle_ack(const SegmentView& s) {
  if (!s.has_ack()) return;
  rwnd_peer_ = s.window;

  if (s.ack > snd_una_ && s.ack <= snd_nxt_) {
    const std::uint64_t acked = s.ack - snd_una_;
    snd_una_ = s.ack;
    send_buf_.ack(std::min(offset_of(snd_una_), send_buf_.end()));
    retries_ = 0;
    rto_.clear_backoff();

    if (timing_active_ && s.ack >= timed_end_seq_) {
      rto_.sample(sim_.now() - timed_at_);
      timing_active_ = false;
    }

    if (in_recovery_) {
      if (s.ack >= recover_) {
        in_recovery_ = false;
        dup_acks_ = 0;
        recovery_inflation_ = 0;
        cc_.on_recovery_exit();
      } else {
        // NewReno partial ACK: the next hole is lost too — retransmit it.
        ++stats_.retransmits_hole;
        obs_->add(obs::Counter::kTcpRetransmitsHole);
        retransmit_head();
      }
    } else {
      dup_acks_ = 0;
      cc_.on_ack(acked);
      obs_->sample(obs::Hist::kTcpCwndBytes, cc_.cwnd());
      obs_->gauge_max(obs::Gauge::kTcpCwndBytes, cc_.cwnd());
    }

    if (snd_una_ == snd_nxt_) {
      cancel_retx_timer();
    } else {
      arm_retx_timer();
    }
    pump();
    maybe_fire_writable();
    return;
  }

  // Duplicate ACK: does not advance, carries no data, with data outstanding.
  if (s.ack == snd_una_ && snd_nxt_ > snd_una_ && s.payload.empty() && !s.syn() &&
      !s.fin()) {
    if (in_recovery_) {
      recovery_inflation_ += kMss;
      pump();
    } else {
      ++dup_acks_;
      cc_.on_dup_ack();
      if (dup_acks_ == kDupAckThreshold) {
        in_recovery_ = true;
        recover_ = snd_nxt_;
        recovery_inflation_ = std::uint64_t{kDupAckThreshold} * kMss;
        cc_.on_fast_retransmit();
        obs_->sample(obs::Hist::kTcpCwndBytes, cc_.cwnd());
        ++stats_.retransmits_fast;
        obs_->add(obs::Counter::kTcpRetransmitsFast);
        retransmit_head();
        arm_retx_timer();
      }
    }
  }
}

void Connection::handle_data(const SegmentView& s) {
  if (!peer_syn_seen_ && state_ != State::kEstablished) return;
  if (s.payload.empty()) return;

  // In-order segments (the steady state) are delivered as a view into the
  // packet's pooled buffer; out-of-order ones are copied into the
  // reassembly window once and delivered from there.
  const util::BytesView delivered = reassembly_.offer(s.seq, s.payload);
  if (!delivered.empty() && on_data) on_data(delivered);
  // ACK every segment that carries data; an ACK that does not advance
  // rcv_nxt is the duplicate ACK the sender's loss detector needs.
  send_ack();
}

}  // namespace h2priv::tcp
