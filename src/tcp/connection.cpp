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
constexpr util::Duration kTimeWaitDuration = util::seconds(1);

}  // namespace

const char* to_string(State s) noexcept {
  switch (s) {
    case State::kClosed: return "CLOSED";
    case State::kListen: return "LISTEN";
    case State::kSynSent: return "SYN_SENT";
    case State::kSynRcvd: return "SYN_RCVD";
    case State::kEstablished: return "ESTABLISHED";
    case State::kFinWait1: return "FIN_WAIT_1";
    case State::kFinWait2: return "FIN_WAIT_2";
    case State::kCloseWait: return "CLOSE_WAIT";
    case State::kLastAck: return "LAST_ACK";
    case State::kClosing: return "CLOSING";
    case State::kTimeWait: return "TIME_WAIT";
  }
  return "?";
}

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
  if (state_ == State::kClosed || state_ == State::kTimeWait || fin_queued_) {
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

void Connection::close() {
  if (fin_queued_ || state_ == State::kClosed) return;
  fin_queued_ = true;
  if (state_ == State::kEstablished || state_ == State::kSynRcvd || state_ ==
      State::kSynSent) {
    state_ = State::kFinWait1;
  } else if (state_ == State::kCloseWait) {
    state_ = State::kLastAck;
  }
  pump();
}

void Connection::abort() {
  if (state_ == State::kClosed) return;
  SegmentView rst;
  rst.flags = kFlagRst | kFlagAck;
  rst.seq = snd_nxt_;
  rst.ack = reassembly_.rcv_nxt() + (peer_fin_consumed_ ? 1 : 0);
  emit(rst);
  finish(CloseReason::kReset);
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
  if (!s.payload.empty()) ++stats_.data_segments_sent;
  // One pooled chunk per segment: header + payload serialise straight into
  // it, and the chunk rides the Packet all the way to the receiving
  // endpoint before returning to this thread's pool.
  util::ByteWriter w(util::default_pool(), kHeaderBytes + s.payload.size());
  encode_segment(w, s);
  out_(w.take_shared());
}

void Connection::send_ack(bool duplicate) {
  SegmentView ack;
  ack.flags = kFlagAck;
  ack.seq = snd_nxt_;
  ack.ack = reassembly_.rcv_nxt() + (peer_fin_consumed_ ? 1 : 0);
  if (duplicate) ++stats_.dup_acks_sent;
  emit(ack);
}

void Connection::pump() {
  const bool can_send_data =
      state_ == State::kEstablished || state_ == State::kCloseWait ||
      state_ == State::kFinWait1 || state_ == State::kLastAck || state_ ==
          State::kClosing;
  if (!can_send_data || snd_nxt_ == 0) return;

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
    if (next_offset < send_buf_.end()) {
      const std::uint64_t room = wnd - inflight;
      const std::size_t n = static_cast<std::size_t>(std::min<std::uint64_t>(
          {kMss, room, send_buf_.end() - next_offset}));
      if (n == 0) break;
      SegmentView seg;
      seg.flags = kFlagAck;
      seg.seq = snd_nxt_;
      seg.ack = reassembly_.rcv_nxt() + (peer_fin_consumed_ ? 1 : 0);
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
      continue;
    }
    // All data transmitted; maybe the FIN goes out now.
    if (fin_queued_ && !fin_sent_) {
      SegmentView fin;
      fin.flags = kFlagFin | kFlagAck;
      fin.seq = snd_nxt_;
      fin.ack = reassembly_.rcv_nxt() + (peer_fin_consumed_ ? 1 : 0);
      snd_nxt_ += 1;
      fin_sent_ = true;
      emit(fin);
      sent_any = true;
    }
    break;
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
    seg.ack = reassembly_.rcv_nxt() + (peer_fin_consumed_ ? 1 : 0);
    seg.payload = send_buf_.read_view(off, n);
    emit(seg);
  } else if (fin_sent_ && snd_una_ <= fin_seq()) {
    SegmentView fin;
    fin.flags = kFlagFin | kFlagAck;
    fin.seq = fin_seq();
    fin.ack = reassembly_.rcv_nxt() + (peer_fin_consumed_ ? 1 : 0);
    emit(fin);
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
  if (state_ == State::kTimeWait) {
    finish(CloseReason::kNormal);
    return;
  }
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
        syn_acked_ = true;
        rwnd_peer_ = s.window;
        enter_established();
        send_ack(false);
      }
      return;

    case State::kSynRcvd:
      if (s.has_ack() && s.ack >= 1) {
        snd_una_ = std::max<std::uint64_t>(snd_una_, 1);
        syn_acked_ = true;
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
        send_ack(false);
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
    if (snd_una_ >= 1) syn_acked_ = true;
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

    // FIN acked?
    if (fin_sent_ && snd_una_ > fin_seq()) {
      if (state_ == State::kFinWait1) {
        state_ = peer_fin_consumed_ ? State::kTimeWait : State::kFinWait2;
      } else if (state_ == State::kClosing) {
        state_ = State::kTimeWait;
      } else if (state_ == State::kLastAck) {
        finish(CloseReason::kNormal);
        return;
      }
      if (state_ == State::kTimeWait) {
        cancel_retx_timer();
        retx_timer_ = sim_.schedule(kTimeWaitDuration, [this] {
          retx_timer_ = {};
          finish(CloseReason::kNormal);
        });
      }
    }

    if (snd_una_ == snd_nxt_) {
      if (state_ != State::kTimeWait) cancel_retx_timer();
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
    ++stats_.dup_acks_received;
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

  bool consumed_something = false;
  bool out_of_order = false;

  if (!s.payload.empty()) {
    out_of_order = s.seq > reassembly_.rcv_nxt();
    consumed_something = true;
    // In-order segments (the steady state) are delivered as a view into the
    // packet's pooled buffer; out-of-order ones are copied into the
    // reassembly window once and delivered from there.
    const util::BytesView delivered = reassembly_.offer(s.seq, s.payload);
    if (!delivered.empty() && on_data) on_data(delivered);
  }

  if (s.fin()) {
    peer_fin_seq_ = s.seq + s.payload.size();
    consumed_something = true;
  }
  if (peer_fin_seq_ && !peer_fin_consumed_ && reassembly_.rcv_nxt() == *peer_fin_seq_) {
    peer_fin_consumed_ = true;
    switch (state_) {
      case State::kEstablished: state_ = State::kCloseWait; break;
      case State::kFinWait1: state_ = State::kClosing; break;
      case State::kFinWait2:
        state_ = State::kTimeWait;
        cancel_retx_timer();
        retx_timer_ = sim_.schedule(kTimeWaitDuration, [this] {
          retx_timer_ = {};
          finish(CloseReason::kNormal);
        });
        break;
      default: break;
    }
  }

  if (consumed_something) {
    // ACK everything that consumes sequence space; an ACK that does not
    // advance rcv_nxt is the duplicate ACK the sender's loss detector needs.
    send_ack(out_of_order);
  }
}

}  // namespace h2priv::tcp
