#include "h2priv/h2/stream.hpp"

#include <gtest/gtest.h>

namespace h2priv::h2 {
namespace {

TEST(H2Stream, ClientRequestLifecycle) {
  Stream s;
  s.id = 1;
  s.open_local(/*end_stream=*/true);  // GET with no body
  EXPECT_EQ(s.state, StreamState::kHalfClosedLocal);
  EXPECT_TRUE(s.can_receive_data());
  EXPECT_FALSE(s.can_send_data());
  s.end_remote();  // response END_STREAM
  EXPECT_EQ(s.state, StreamState::kClosed);
}

TEST(H2Stream, ServerResponseLifecycle) {
  Stream s;
  s.id = 1;
  s.open_remote(/*end_stream=*/true);  // peer GET
  EXPECT_EQ(s.state, StreamState::kHalfClosedRemote);
  EXPECT_TRUE(s.can_send_data());
  s.end_local();
  EXPECT_EQ(s.state, StreamState::kClosed);
}

TEST(H2Stream, OpenWithBodyBothWays) {
  Stream s;
  s.open_local(false);
  EXPECT_EQ(s.state, StreamState::kOpen);
  EXPECT_TRUE(s.can_send_data());
  EXPECT_TRUE(s.can_receive_data());
  s.end_local();
  EXPECT_EQ(s.state, StreamState::kHalfClosedLocal);
  s.end_remote();
  EXPECT_EQ(s.state, StreamState::kClosed);
}

TEST(H2Stream, ReservedLocalPushLifecycle) {
  Stream s;
  s.state = StreamState::kReservedLocal;
  s.open_local(false);  // response HEADERS on the promised stream
  EXPECT_EQ(s.state, StreamState::kHalfClosedRemote);
  s.end_local();
  EXPECT_EQ(s.state, StreamState::kClosed);
}

TEST(H2Stream, ReservedRemotePushLifecycle) {
  Stream s;
  s.state = StreamState::kReservedRemote;
  s.open_remote(false);
  EXPECT_EQ(s.state, StreamState::kHalfClosedLocal);
  s.end_remote();
  EXPECT_EQ(s.state, StreamState::kClosed);
}

TEST(H2Stream, IllegalTransitionsThrow) {
  Stream s;
  EXPECT_THROW(s.end_local(), std::logic_error);   // END_STREAM while idle
  EXPECT_THROW(s.end_remote(), std::logic_error);
  s.open_local(true);
  EXPECT_THROW(s.open_local(true), std::logic_error);  // double HEADERS
  EXPECT_THROW(s.end_local(), std::logic_error);       // already half-closed local
}

TEST(H2Stream, ResetClosesTheStream) {
  Stream s;
  s.open_local(false);
  s.reset();
  EXPECT_EQ(s.state, StreamState::kClosed);
  EXPECT_FALSE(s.can_send_data());
  EXPECT_FALSE(s.can_receive_data());
}

TEST(H2Stream, StateNames) {
  EXPECT_STREQ(to_string(StreamState::kIdle), "idle");
  EXPECT_STREQ(to_string(StreamState::kOpen), "open");
  EXPECT_STREQ(to_string(StreamState::kClosed), "closed");
}

}  // namespace
}  // namespace h2priv::h2
