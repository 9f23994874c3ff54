// Tests for the Data Manager stack: channels (in-process and TCP),
// the rendezvous broker, the communication proxy, message-passing
// library facades, services, and the send/receive/compute thread
// lifecycle.
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <future>
#include <thread>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "datamgr/broker.hpp"
#include "datamgr/channel.hpp"
#include "datamgr/data_manager.hpp"
#include "datamgr/frame.hpp"
#include "datamgr/mplib.hpp"
#include "datamgr/proxy.hpp"
#include "datamgr/services.hpp"
#include "datamgr/tcp.hpp"
#include "runtime/engine.hpp"
#include "scheduler/allocation.hpp"
#include "sim/workloads.hpp"
#include "tasklib/registry.hpp"

namespace vdce::dm {
namespace {

using common::AppId;
using common::StateError;
using common::TaskId;
using common::TransportError;

std::vector<std::byte> bytes_of(const std::string& s) {
  std::vector<std::byte> out;
  for (char c : s) out.push_back(static_cast<std::byte>(c));
  return out;
}

std::string string_of(const std::vector<std::byte>& b) {
  std::string out;
  for (std::byte v : b) out.push_back(static_cast<char>(v));
  return out;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// ------------------------------------------------------------ channels

/// The producer's and the consumer's end of one in-process link, as
/// the broker hands them out.
std::pair<std::shared_ptr<Channel>, std::shared_ptr<Channel>> inproc_link() {
  ChannelBroker broker(TransportKind::kInProcess);
  const LinkKey key{AppId(1), TaskId(0), TaskId(1)};
  auto receiver = broker.open_receive(key);
  return {broker.open_send(key), std::move(receiver)};
}

TEST(InProcChannel, DeliversInOrder) {
  auto [sender, receiver] = inproc_link();
  sender->send(bytes_of("one"));
  sender->send(bytes_of("two"));
  EXPECT_EQ(string_of(*receiver->receive()), "one");
  EXPECT_EQ(string_of(*receiver->receive()), "two");
}

TEST(InProcChannel, CloseDrainsThenEof) {
  auto [sender, receiver] = inproc_link();
  sender->send(bytes_of("last"));
  sender->close();
  EXPECT_EQ(string_of(*receiver->receive()), "last");
  EXPECT_EQ(receiver->receive(), std::nullopt);
}

TEST(InProcChannel, SendAfterCloseThrows) {
  auto [sender, receiver] = inproc_link();
  receiver->close();
  EXPECT_THROW(sender->send(bytes_of("x")), TransportError);
}

TEST(InProcChannel, CountsBytes) {
  auto [sender, receiver] = inproc_link();
  sender->send(bytes_of("12345"));
  EXPECT_EQ(sender->bytes_sent(), 5u);
}

TEST(InProcChannel, RendezvousSharesOneRing) {
  ChannelBroker broker(TransportKind::kInProcess, 4);
  const LinkKey key{AppId(1), TaskId(0), TaskId(1)};
  auto receiver = broker.open_receive(key);
  auto sender = broker.open_send(key);
  EXPECT_EQ(receiver.get(), sender.get());  // one bounded ring, two ends
  const auto* ring = dynamic_cast<const RingChannel*>(receiver.get());
  ASSERT_NE(ring, nullptr);
  EXPECT_EQ(ring->capacity(), 4u);  // the broker's ring capacity
}

TEST(TcpChannel, RoundTripOverLoopback) {
  TcpListener listener;
  EXPECT_GT(listener.port(), 0);

  std::unique_ptr<TcpChannel> server_end;
  std::jthread acceptor([&] { server_end = listener.accept(); });
  auto client_end = tcp_connect(listener.port());
  acceptor.join();
  ASSERT_TRUE(server_end);

  client_end->send(bytes_of("hello over tcp"));
  EXPECT_EQ(string_of(*server_end->receive()), "hello over tcp");

  // And the other direction.
  server_end->send(bytes_of("reply"));
  EXPECT_EQ(string_of(*client_end->receive()), "reply");
}

TEST(TcpChannel, LargeMessage) {
  TcpListener listener;
  std::unique_ptr<TcpChannel> server_end;
  std::jthread acceptor([&] { server_end = listener.accept(); });
  auto client_end = tcp_connect(listener.port());
  acceptor.join();

  common::Rng rng(1);
  std::vector<std::byte> big(1 << 20);
  for (auto& b : big) b = static_cast<std::byte>(rng() & 0xFF);
  client_end->send(big);
  const auto got = server_end->receive();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, big);
}

TEST(TcpChannel, EmptyMessage) {
  TcpListener listener;
  std::unique_ptr<TcpChannel> server_end;
  std::jthread acceptor([&] { server_end = listener.accept(); });
  auto client_end = tcp_connect(listener.port());
  acceptor.join();
  client_end->send({});
  const auto got = server_end->receive();
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->empty());
}

TEST(TcpChannel, OrderlyEofOnClose) {
  TcpListener listener;
  std::unique_ptr<TcpChannel> server_end;
  std::jthread acceptor([&] { server_end = listener.accept(); });
  auto client_end = tcp_connect(listener.port());
  acceptor.join();
  client_end->close();
  EXPECT_EQ(server_end->receive(), std::nullopt);
}

TEST(TcpChannel, ConnectToDeadPortThrows) {
  // Grab a port then close the listener so nothing is listening.  The
  // refusal is final at once: nothing retries it.
  std::uint16_t port;
  {
    TcpListener listener;
    port = listener.port();
  }
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW((void)tcp_connect(port), TransportError);
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(50));
}

TEST(TcpChannel, RejectsOversizedSend) {
  // The 4-byte length header cannot carry messages above the frame
  // limit; send must refuse instead of silently truncating the length.
  TcpListener listener;
  std::unique_ptr<TcpChannel> server_end;
  std::jthread acceptor([&] { server_end = listener.accept(); });
  auto client_end = tcp_connect(listener.port());
  acceptor.join();

  client_end->set_max_message_bytes(64);
  EXPECT_THROW(client_end->send(std::vector<std::byte>(65)),
               TransportError);
  // At the limit is still fine.
  client_end->send(std::vector<std::byte>(64));
  EXPECT_EQ(server_end->receive()->size(), 64u);
}

TEST(TcpChannel, ReceiveBoundsChecksDecodedLength) {
  // A peer announcing a frame larger than the receiver's limit must be
  // rejected before the receiver allocates the announced size.
  TcpListener listener;
  std::unique_ptr<TcpChannel> server_end;
  std::jthread acceptor([&] { server_end = listener.accept(); });
  auto client_end = tcp_connect(listener.port());
  acceptor.join();

  server_end->set_max_message_bytes(16);
  client_end->send(std::vector<std::byte>(1024));
  EXPECT_THROW((void)server_end->receive(), TransportError);
}

TEST(TcpChannel, InvalidFrameLimitRejected) {
  TcpListener listener;
  std::unique_ptr<TcpChannel> server_end;
  std::jthread acceptor([&] { server_end = listener.accept(); });
  auto client_end = tcp_connect(listener.port());
  acceptor.join();
  EXPECT_THROW(client_end->set_max_message_bytes(0), StateError);
  EXPECT_THROW(client_end->set_max_message_bytes(std::size_t{1} << 40),
               StateError);
}

TEST(TcpChannel, ReceiveForTimesOutWithoutData) {
  TcpListener listener;
  std::unique_ptr<TcpChannel> server_end;
  std::jthread acceptor([&] { server_end = listener.accept(); });
  auto client_end = tcp_connect(listener.port());
  acceptor.join();
  EXPECT_THROW((void)server_end->receive_for(0.05), TransportError);
  // The channel is still usable after a timeout.
  client_end->send(bytes_of("late"));
  EXPECT_EQ(string_of(*server_end->receive_for(5.0)), "late");
}

TEST(TcpChannel, ReceiveForSeesOrderlyClose) {
  TcpListener listener;
  std::unique_ptr<TcpChannel> server_end;
  std::jthread acceptor([&] { server_end = listener.accept(); });
  auto client_end = tcp_connect(listener.port());
  acceptor.join();
  client_end->close();
  EXPECT_EQ(server_end->receive_for(5.0), std::nullopt);
}

TEST(TcpServer, SessionsOverlapAndAStopClosesEveryLiveOne) {
  // Each connection gets a session of its own, so a second client is
  // served while the first is still connected.  A session may stop the
  // server (the daemon's shutdown RPC does): every live connection then
  // sees EOF, and join() returns once every session has.
  TcpServer server;
  std::atomic<int> ended{0};
  server.start([&](TcpChannel& channel) {
    while (const auto frame = channel.receive()) {
      if (string_of(*frame) == "stop") {
        server.stop();
      } else {
        channel.send(*frame);
      }
    }
    ended.fetch_add(1);
  });
  auto first = tcp_connect(server.port());
  auto second = tcp_connect(server.port());
  second->send(bytes_of("two"));
  EXPECT_EQ(string_of(*second->receive_for(5.0)), "two");
  first->send(bytes_of("one"));
  EXPECT_EQ(string_of(*first->receive_for(5.0)), "one");

  second->send(bytes_of("stop"));
  EXPECT_EQ(first->receive_for(5.0), std::nullopt);
  EXPECT_EQ(second->receive_for(5.0), std::nullopt);
  server.join();
  EXPECT_EQ(ended.load(), 2);
}

TEST(InProcChannel, ReceiveForTimesOutWithoutData) {
  auto [sender, receiver] = inproc_link();
  EXPECT_THROW((void)receiver->receive_for(0.05), TransportError);
  sender->send(bytes_of("late"));
  EXPECT_EQ(string_of(*receiver->receive_for(5.0)), "late");
}

TEST(InProcChannel, ReceiveForSeesOrderlyClose) {
  auto [sender, receiver] = inproc_link();
  sender->close();
  EXPECT_EQ(receiver->receive_for(5.0), std::nullopt);
}

TEST(InProcChannel, ClearAppWakesProducerParkedOnFullRing) {
  // A producer parked inside push() on a full ring holds the ring
  // itself, so dropping the registration alone would not reach it.
  // clear_app must abort the ring so that producer wakes with
  // TransportError instead of sleeping until its consumer (torn down
  // with the app) drains.
  ChannelBroker broker(TransportKind::kInProcess, 2);
  const LinkKey key{AppId(7), TaskId(0), TaskId(1)};
  auto receiver = broker.open_receive(key);
  auto sender = broker.open_send(key);
  sender->send(bytes_of("a"));
  sender->send(bytes_of("b"));  // ring full

  std::atomic<bool> threw{false};
  const auto t0 = std::chrono::steady_clock::now();
  std::jthread producer([&] {
    try {
      sender->send(bytes_of("c"));  // parks
    } catch (const TransportError&) {
      threw.store(true);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  broker.clear_app(AppId(7));
  producer.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_TRUE(threw.load());
  EXPECT_LT(elapsed, 5.0) << "parked producer slept through clear_app";
  EXPECT_THROW((void)receiver->receive(), TransportError);
}

TEST(InProcChannel, ClearAppWakesConsumerParkedOnEmptyRing) {
  ChannelBroker broker(TransportKind::kInProcess);
  const LinkKey key{AppId(8), TaskId(0), TaskId(1)};
  auto receiver = broker.open_receive(key);
  std::atomic<bool> threw{false};
  std::jthread consumer([&] {
    try {
      (void)receiver->receive();  // parks: nothing queued, not closed
    } catch (const TransportError&) {
      threw.store(true);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  broker.clear_app(AppId(8));
  consumer.join();
  EXPECT_TRUE(threw.load());
}

// -------------------------------------------------------------- broker

class BrokerKinds : public ::testing::TestWithParam<TransportKind> {};

TEST_P(BrokerKinds, RendezvousDelivers) {
  ChannelBroker broker(GetParam());
  const LinkKey key{AppId(1), TaskId(0), TaskId(1)};

  auto receiver = broker.open_receive(key);
  std::jthread producer([&] {
    auto sender = broker.open_send(key);
    sender->send(bytes_of("payload"));
    sender->close();
  });
  EXPECT_EQ(string_of(*receiver->receive()), "payload");
}

TEST_P(BrokerKinds, SenderWaitsForReceiver) {
  ChannelBroker broker(GetParam());
  const LinkKey key{AppId(1), TaskId(0), TaskId(1)};
  std::shared_ptr<Channel> receiver;

  std::jthread consumer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    receiver = broker.open_receive(key);
  });
  auto sender = broker.open_send(key);  // makes the link, then ok
  consumer.join();
  sender->send(bytes_of("late ok"));
  EXPECT_EQ(string_of(*receiver->receive()), "late ok");
}

TEST_P(BrokerKinds, OpenSendWithNoConsumerReturnsPromptly) {
  // The producer makes the link when it opens first: nothing to wait
  // for.
  ChannelBroker broker(GetParam());
  const LinkKey key{AppId(1), TaskId(0), TaskId(1)};
  const auto t0 = std::chrono::steady_clock::now();
  auto sender = broker.open_send(key);
  const double elapsed = seconds_since(t0);
  EXPECT_NE(sender, nullptr);
  EXPECT_LT(elapsed, 0.05) << "open_send waited for a consumer";
}

TEST_P(BrokerKinds, FramesSentBeforeTheConsumerOpensArriveInOrder) {
  ChannelBroker broker(GetParam());
  const LinkKey key{AppId(1), TaskId(0), TaskId(1)};
  auto sender = broker.open_send(key);
  for (int i = 0; i < 3; ++i) {
    sender->send(bytes_of("early " + std::to_string(i)));
  }
  sender->close();
  auto receiver = broker.open_receive(key);
  for (int i = 0; i < 3; ++i) {
    auto got = receiver->receive_for(5.0);
    ASSERT_TRUE(got.has_value()) << i;
    EXPECT_EQ(string_of(*got), "early " + std::to_string(i));
  }
  EXPECT_EQ(receiver->receive_for(5.0), std::nullopt);
}

TEST_P(BrokerKinds, DuplicateReceiveRejected) {
  ChannelBroker broker(GetParam());
  const LinkKey key{AppId(1), TaskId(0), TaskId(1)};
  (void)broker.open_receive(key);
  EXPECT_THROW((void)broker.open_receive(key), StateError);
}

TEST_P(BrokerKinds, DuplicateSendRejected) {
  // A second producer would share the first one's ring, or lease a
  // second connection to one link id.
  ChannelBroker broker(GetParam());
  const LinkKey key{AppId(1), TaskId(0), TaskId(1)};
  auto sender = broker.open_send(key);
  EXPECT_THROW((void)broker.open_send(key), StateError);
  auto receiver = broker.open_receive(key);  // the first pair still works
  EXPECT_THROW((void)broker.open_send(key), StateError);
  sender->send(bytes_of("only producer"));
  EXPECT_EQ(string_of(*receiver->receive_for(5.0)), "only producer");
}

TEST_P(BrokerKinds, ClearAppFreesKeys) {
  ChannelBroker broker(GetParam());
  const LinkKey key{AppId(1), TaskId(0), TaskId(1)};
  (void)broker.open_receive(key);
  broker.clear_app(AppId(1));
  EXPECT_NO_THROW((void)broker.open_receive(key));
}

TEST_P(BrokerKinds, ClearAppFailsAProducerThatOpenedFirst) {
  // The engine tears an app down while a producer that made its link
  // is still sending and the consumer never opened.  In process the
  // producer is parked on the full ring it made; over TCP its link's
  // unclaimed consumer end closes, and the proxy resets the producer
  // on its next frame.  Either way the producer fails within a second.
  using Clock = std::chrono::steady_clock;
  ChannelBroker broker(GetParam(), /*link_capacity=*/2);
  const LinkKey key{AppId(7), TaskId(0), TaskId(1)};

  // The producer owns what it touches, so one that is never failed is
  // left blocked, not joined, and the test fails instead of hanging.
  struct Producer {
    std::atomic<int> sent{0};
    std::promise<Clock::time_point> failed;
  };
  auto producer = std::make_shared<Producer>();
  std::future<Clock::time_point> failed = producer->failed.get_future();
  std::thread([sender = broker.open_send(key), producer] {
    const auto t0 = Clock::now();
    try {
      while (seconds_since(t0) < 10.0) {
        sender->send(bytes_of("frame"));
        producer->sent.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    } catch (const TransportError&) {
      producer->failed.set_value(Clock::now());
    }
  }).detach();

  // Two frames fill the ring in process; over TCP they are in flight.
  for (int i = 0; i < 200 && producer->sent.load() < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  if (GetParam() == TransportKind::kInProcess) {
    EXPECT_EQ(producer->sent.load(), 2) << "not parked on its full ring";
  }
  const auto cleared = Clock::now();
  broker.clear_app(AppId(7));
  ASSERT_EQ(failed.wait_for(std::chrono::seconds(2)),
            std::future_status::ready)
      << "clear_app never failed the producer";
  EXPECT_LT(std::chrono::duration<double>(failed.get() - cleared).count(),
            1.0);
}

TEST_P(BrokerKinds, ClearAppIdempotentAndConcurrentSafe) {
  // Concurrent clears racing concurrent opens of the same app neither
  // crash nor strand an opener, and clear_app twice in a row is a
  // no-op the second time.
  ChannelBroker broker(GetParam());
  constexpr int kOpeners = 4;
  constexpr int kLinks = 50;
  {
    std::vector<std::jthread> threads;
    for (int i = 0; i < kOpeners; ++i) {
      threads.emplace_back([&broker, i] {
        for (int l = 0; l < kLinks; ++l) {
          const LinkKey key{AppId(9), TaskId(1000 * i + l),
                            TaskId(1000 * i + l + 500)};
          // Alternate which end opens first.
          std::shared_ptr<Channel> rx, tx;
          if (l % 2 == 0) {
            rx = broker.open_receive(key);
            tx = broker.open_send(key);
          } else {
            tx = broker.open_send(key);
            rx = broker.open_receive(key);
          }
          try {
            tx->send(bytes_of("racing a clear"));
          } catch (const TransportError&) {
            // The ring was aborted by a clear: the expected outcome.
          }
          tx->close();
          rx->close();
        }
      });
    }
    for (int c = 0; c < 2; ++c) {
      threads.emplace_back([&broker] {
        for (int k = 0; k < kLinks; ++k) {
          broker.clear_app(AppId(9));
          std::this_thread::yield();
        }
      });
    }
  }
  broker.clear_app(AppId(9));
  broker.clear_app(AppId(9));

  // The broker stays usable for the same app after the clears: a fresh
  // pair delivers.
  const LinkKey key{AppId(9), TaskId(0), TaskId(100)};
  auto receiver = broker.open_receive(key);
  std::jthread producer([&] {
    auto sender = broker.open_send(key);
    sender->send(bytes_of("after clear"));
    sender->close();
  });
  EXPECT_EQ(string_of(*receiver->receive()), "after clear");
}

TEST_P(BrokerKinds, ClearAppLeavesOtherAppsWaiting) {
  // Clearing app A must not drop app B's link, which B's producer made
  // before its consumer opened.
  ChannelBroker broker(GetParam());
  const LinkKey key{AppId(2), TaskId(0), TaskId(1)};
  std::shared_ptr<Channel> receiver;

  std::jthread consumer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    receiver = broker.open_receive(key);
  });
  std::jthread other_clear([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    broker.clear_app(AppId(1));  // unrelated app
  });
  auto sender = broker.open_send(key);
  consumer.join();
  sender->send(bytes_of("unaffected"));
  EXPECT_EQ(string_of(*receiver->receive()), "unaffected");
}

TEST_P(BrokerKinds, ConsumerThatLeavesFailsItsProducer) {
  // One close rule on every link: a consumer that closes after three
  // frames fails its producer's sends with TransportError, as a reset
  // would over TCP (CommProxy.ConsumerThatLeavesResetsItsProducer pins
  // the proxy's side of it).
  ChannelBroker broker(GetParam());
  const LinkKey key{AppId(3), TaskId(0), TaskId(1)};
  auto receiver = broker.open_receive(key);
  auto sender = broker.open_send(key);
  std::jthread consumer([&] {
    for (int i = 0; i < 3; ++i) ASSERT_TRUE(receiver->receive_for(5.0));
    receiver->close();
  });
  const auto t0 = std::chrono::steady_clock::now();
  bool failed = false;
  try {
    while (std::chrono::steady_clock::now() - t0 < std::chrono::seconds(10)) {
      sender->send(bytes_of("stream frame"));
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  } catch (const TransportError&) {
    failed = true;
  }
  consumer.join();
  EXPECT_TRUE(failed) << "the producer never learned its consumer left";
  sender->close();
}

INSTANTIATE_TEST_SUITE_P(Transports, BrokerKinds,
                         ::testing::Values(TransportKind::kInProcess,
                                           TransportKind::kTcp));

// ------------------------------------------------- ring channel (D16)

TEST(RingChannel, FifoOrderAndDrainToEos) {
  RingChannel ring(4);
  for (int i = 0; i < 4; ++i) {
    ring.push(FramePool::global().copy_of(bytes_of("f" + std::to_string(i))));
  }
  EXPECT_EQ(ring.size(), 4u);
  ring.close();
  EXPECT_TRUE(ring.eos());
  for (int i = 0; i < 4; ++i) {
    auto fv = ring.pop();
    ASSERT_TRUE(fv.has_value());
    EXPECT_EQ(string_of(fv->to_vector()), "f" + std::to_string(i));
  }
  EXPECT_FALSE(ring.pop().has_value());  // clean EOS
  EXPECT_FALSE(ring.pop().has_value());  // and it stays that way
}

TEST(RingChannel, ProducerParksOnFullUntilConsumerMakesRoom) {
  RingChannel ring(1);
  ring.push(FramePool::global().copy_of(bytes_of("first")));
  std::atomic<bool> delivered{false};
  std::jthread producer([&] {
    ring.push(FramePool::global().copy_of(bytes_of("second")));
    delivered.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(delivered.load());  // parked on the full ring
  EXPECT_EQ(string_of(ring.pop()->to_vector()), "first");
  producer.join();
  EXPECT_TRUE(delivered.load());
  EXPECT_EQ(string_of(ring.pop()->to_vector()), "second");
  EXPECT_GE(ring.stats().producer_parks, 1u);
}

TEST(RingChannel, PopForTimesOutWithTransportError) {
  RingChannel ring(2);
  const auto before =
      common::MetricsRegistry::global().counter("datamgr.deadline_expiries")
          .value();
  EXPECT_THROW((void)ring.pop_for(0.05), TransportError);
  EXPECT_GT(common::MetricsRegistry::global()
                .counter("datamgr.deadline_expiries")
                .value(),
            before);
}

TEST(RingChannel, ConsumerCloseWakesAProducerParkedOnAFullRing) {
  // The close rule: a consumer that leaves fails a producer parked on
  // its full ring, as a reset fails a TCP producer -- abort() is not
  // needed to free it.
  RingChannel ring(1);
  ring.push(FramePool::global().copy_of(bytes_of("held")));
  std::atomic<bool> threw{false};
  std::atomic<bool> returned{false};
  std::jthread producer([&] {
    try {
      ring.push(FramePool::global().copy_of(bytes_of("parked")));
    } catch (const TransportError&) {
      threw.store(true);
    }
    returned.store(true);
  });
  using Clock = std::chrono::steady_clock;
  const auto parked_by = Clock::now() + std::chrono::seconds(2);
  while (ring.stats().producer_parks == 0 && Clock::now() < parked_by) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(ring.stats().producer_parks, 1u);
  ring.close();  // the consumer leaves
  const auto woken_by = Clock::now() + std::chrono::seconds(2);
  while (!returned.load() && Clock::now() < woken_by) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const bool woke = returned.load();
  if (!woke) ring.abort();  // free the producer so the join returns
  producer.join();
  EXPECT_TRUE(woke) << "still parked 2 s after the consumer closed";
  EXPECT_TRUE(threw.load());
  EXPECT_EQ(ring.stats().frames_pushed, 1u);
}

TEST(RingChannel, AbortDropsFramesAndWakesParkedProducer) {
  RingChannel ring(1);
  ring.push(FramePool::global().copy_of(bytes_of("stuck")));
  std::atomic<bool> threw{false};
  std::jthread producer([&] {
    try {
      ring.push(FramePool::global().copy_of(bytes_of("parked")));
    } catch (const TransportError&) {
      threw.store(true);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  ring.abort();
  ring.abort();  // idempotent
  producer.join();
  EXPECT_TRUE(threw.load());
  EXPECT_TRUE(ring.aborted());
  EXPECT_EQ(ring.size(), 0u);  // the queued frame was dropped
  EXPECT_EQ(ring.stats().frames_dropped, 1u);
  EXPECT_THROW((void)ring.pop(), TransportError);
  EXPECT_THROW(ring.push(FramePool::global().copy_of(bytes_of("late"))),
               TransportError);
}

TEST(RingChannel, AbortWakesParkedConsumer) {
  RingChannel ring(2);
  std::atomic<bool> threw{false};
  std::jthread consumer([&] {
    try {
      (void)ring.pop();  // parks: empty, no EOS
    } catch (const TransportError&) {
      threw.store(true);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  ring.abort();
  consumer.join();
  EXPECT_TRUE(threw.load());
}

TEST(RingChannel, ChannelInterfaceRoundTrip) {
  RingChannel ring(4);
  Channel& ch = ring;
  ch.send(bytes_of("via channel"));
  EXPECT_EQ(ch.bytes_sent(), bytes_of("via channel").size());
  EXPECT_EQ(string_of(*ch.receive()), "via channel");
  ch.close();
  EXPECT_FALSE(ch.receive().has_value());
}

// --------------------------------------------------------------- mplib

class MpLibSweep : public ::testing::TestWithParam<MpLibrary> {};

TEST_P(MpLibSweep, TaggedRoundTrip) {
  auto ring = std::make_shared<RingChannel>(8);
  MessageEndpoint tx(GetParam(), ring);
  MessageEndpoint rx(GetParam(), ring);
  tx.send(42, bytes_of("tagged message"));
  const auto msg = rx.receive();
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->tag, 42);
  EXPECT_EQ(string_of(msg->data), "tagged message");
}

TEST_P(MpLibSweep, EofPropagates) {
  auto ring = std::make_shared<RingChannel>(8);
  MessageEndpoint tx(GetParam(), ring);
  MessageEndpoint rx(GetParam(), ring);
  tx.close();
  EXPECT_EQ(rx.receive(), std::nullopt);
}

TEST_P(MpLibSweep, LargePayloadRoundTrip) {
  // Sent before it is received: 100000 bytes are 26 PVM messages.
  auto ring = std::make_shared<RingChannel>(32);
  MessageEndpoint tx(GetParam(), ring);
  MessageEndpoint rx(GetParam(), ring);
  common::Rng rng(2);
  std::vector<std::byte> big(100000);
  for (auto& b : big) b = static_cast<std::byte>(rng() & 0xFF);
  tx.send(7, big);
  const auto msg = rx.receive();
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->data, big);
}

INSTANTIATE_TEST_SUITE_P(Libraries, MpLibSweep,
                         ::testing::Values(MpLibrary::kP4, MpLibrary::kPvm,
                                           MpLibrary::kMpi, MpLibrary::kNcs));

TEST(MpLib, LibraryMismatchDetected) {
  auto ring = std::make_shared<RingChannel>(8);
  MessageEndpoint tx(MpLibrary::kP4, ring);
  MessageEndpoint rx(MpLibrary::kMpi, ring);
  tx.send(1, bytes_of("x"));
  EXPECT_THROW((void)rx.receive(), TransportError);
}

TEST(MpLib, MpiCommunicatorChecked) {
  auto ring = std::make_shared<RingChannel>(8);
  MessageEndpoint tx(MpLibrary::kMpi, ring, /*communicator=*/1);
  MessageEndpoint rx(MpLibrary::kMpi, ring, /*communicator=*/2);
  tx.send(1, bytes_of("x"));
  EXPECT_THROW((void)rx.receive(), TransportError);
}

TEST(MpLib, PvmFragmentsLargeMessages) {
  auto ring = std::make_shared<RingChannel>(8);
  MessageEndpoint tx(MpLibrary::kPvm, ring);
  std::vector<std::byte> data(MessageEndpoint::kPvmFragment * 2 + 100);
  tx.send(1, data);
  tx.close();
  // On the raw channel: one header frame + three fragment frames.
  int frames = 0;
  while (ring->receive()) ++frames;
  EXPECT_EQ(frames, 4);
}

TEST(MpLib, PvmMissingFragmentDetected) {
  auto ring = std::make_shared<RingChannel>(8);
  MessageEndpoint tx(MpLibrary::kPvm, ring);
  MessageEndpoint rx(MpLibrary::kPvm, ring);
  std::vector<std::byte> data(MessageEndpoint::kPvmFragment + 10);
  tx.send(1, data);
  // Swallow the last fragment: read the header + first fragment through
  // a raw side-channel is not possible here, so instead close the
  // channel mid-message by sending a fresh header claiming fragments
  // that never arrive.
  auto ring2 = std::make_shared<RingChannel>(8);
  MessageEndpoint tx2(MpLibrary::kPvm, ring2);
  MessageEndpoint rx2(MpLibrary::kPvm, ring2);
  tx2.send(1, data);
  // Receive normally works:
  EXPECT_EQ(rx2.receive()->data.size(), data.size());
  // Truncated: header only, then close.
  common::WireWriter header;
  header.write_u8(static_cast<std::uint8_t>(MpLibrary::kPvm));
  header.write_u32(1);
  header.write_u32(3);  // claims 3 fragments
  header.write_u64(100);
  ring2->send(header.bytes());
  ring2->close();
  EXPECT_THROW((void)rx2.receive(), TransportError);
}

TEST(MpLib, NcsSequenceViolationDetected) {
  auto ring = std::make_shared<RingChannel>(8);
  MessageEndpoint tx(MpLibrary::kNcs, ring);
  MessageEndpoint rx(MpLibrary::kNcs, ring);
  tx.send(1, bytes_of("a"));
  // Drop one message by consuming it at the raw level... instead send
  // two and read both fine first:
  tx.send(2, bytes_of("b"));
  EXPECT_EQ(rx.receive()->tag, 1);
  EXPECT_EQ(rx.receive()->tag, 2);
  // Now fake an out-of-order frame by constructing a second sender whose
  // sequence numbers restart at 0.
  MessageEndpoint rogue(MpLibrary::kNcs, ring);
  rogue.send(3, bytes_of("c"));  // seq 0, receiver expects 2
  EXPECT_THROW((void)rx.receive(), TransportError);
}

// ------------------------------------------------------------ services

TEST(IoServiceTest, FileRoundTrip) {
  IoService io("/tmp");
  const auto payload = tasklib::Payload::of_vector({1.0, 2.0, 3.0});
  io.write_output("/tmp/vdce_io_test.bin", payload);
  const auto reread = io.read_input("file:/tmp/vdce_io_test.bin");
  EXPECT_EQ(reread.as_vector(), payload.as_vector());
}

TEST(IoServiceTest, UrlResolvesAgainstDocRoot) {
  IoService io("/tmp");
  const auto payload = tasklib::Payload::of_scalar(4.5);
  io.write_output("/tmp/vdce_url_test.bin", payload);
  EXPECT_DOUBLE_EQ(io.read_input("url:vdce_url_test.bin").as_scalar(), 4.5);
}

TEST(IoServiceTest, BadSpecThrows) {
  IoService io;
  EXPECT_THROW((void)io.read_input("ftp:whatever"), common::ParseError);
  EXPECT_THROW((void)io.read_input("file:/tmp/definitely_missing_xyz"),
               common::NotFoundError);
}

TEST(ConsoleServiceTest, SuspendBlocksCheckpoint) {
  ConsoleService console;
  console.suspend();
  EXPECT_TRUE(console.suspended());

  std::atomic<bool> passed{false};
  std::jthread worker([&] {
    console.checkpoint();
    passed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(passed);
  console.resume();
  worker.join();
  EXPECT_TRUE(passed);
}

TEST(ConsoleServiceTest, AbortThrowsInCheckpoint) {
  ConsoleService console;
  console.abort();
  EXPECT_TRUE(console.aborted());
  EXPECT_THROW(console.checkpoint(), StateError);
}

TEST(ConsoleServiceTest, AbortWakesSuspended) {
  ConsoleService console;
  console.suspend();
  std::atomic<bool> threw{false};
  std::jthread worker([&] {
    try {
      console.checkpoint();
    } catch (const StateError&) {
      threw = true;
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  console.abort();
  worker.join();
  EXPECT_TRUE(threw);
}

// -------------------------------------------------------- data manager

class DataManagerKinds : public ::testing::TestWithParam<TransportKind> {};

TEST_P(DataManagerKinds, TwoTaskPipeline) {
  ChannelBroker broker(GetParam());
  const auto& registry = tasklib::builtin_registry();

  // synth_source -> synth_sink, each on its own "machine" thread.
  TaskWiring source_wiring{AppId(1), TaskId(0), {}, {TaskId(1)}};
  TaskWiring sink_wiring{AppId(1), TaskId(1), {TaskId(0)}, {}};

  tasklib::Payload sink_out;
  std::string error;
  std::jthread sink_machine([&] {
    try {
      DataManager dm(broker);
      dm.setup(sink_wiring);
      common::Rng rng(2);
      tasklib::TaskContext ctx{1.0, &rng};
      sink_out = dm.run(registry, "synth_sink", ctx);
      dm.teardown();
    } catch (const std::exception& e) {
      error = e.what();
    }
  });
  std::jthread source_machine([&] {
    try {
      DataManager dm(broker);
      dm.setup(source_wiring);
      common::Rng rng(1);
      tasklib::TaskContext ctx{1.0, &rng};
      (void)dm.run(registry, "synth_source", ctx);
      dm.teardown();
    } catch (const std::exception& e) {
      error = e.what();
    }
  });
  sink_machine.join();
  source_machine.join();
  ASSERT_TRUE(error.empty()) << error;
  // 1024 doubles + payload framing -> sink counted the bytes.
  EXPECT_GT(sink_out.as_scalar(), 8000.0);
}

TEST_P(DataManagerKinds, RecvTimeoutFailsInsteadOfHanging) {
  // A dead peer (registered link, sender never connects) must fail the
  // receive within the armed timeout, not hang the machine thread.
  ChannelBroker broker(GetParam());
  DataManager dm(broker);
  dm.set_recv_timeout(0.1);
  dm.setup(TaskWiring{AppId(1), TaskId(1), {TaskId(0)}, {}});
  common::Rng rng(1);
  tasklib::TaskContext ctx{1.0, &rng};
  EXPECT_THROW((void)dm.run(tasklib::builtin_registry(), "synth_sink", ctx),
               TransportError);
  dm.teardown();
}

INSTANTIATE_TEST_SUITE_P(Transports, DataManagerKinds,
                         ::testing::Values(TransportKind::kInProcess,
                                           TransportKind::kTcp));

TEST(DataManagerTest, RunBeforeSetupThrows) {
  ChannelBroker broker(TransportKind::kInProcess);
  DataManager dm(broker);
  common::Rng rng(1);
  tasklib::TaskContext ctx{1.0, &rng};
  EXPECT_THROW((void)dm.run(tasklib::builtin_registry(), "synth_source", ctx),
               StateError);
}

TEST(DataManagerTest, DoubleSetupThrows) {
  ChannelBroker broker(TransportKind::kInProcess);
  DataManager dm(broker);
  dm.setup(TaskWiring{AppId(1), TaskId(0), {}, {}});
  EXPECT_THROW(dm.setup(TaskWiring{AppId(1), TaskId(0), {}, {}}), StateError);
}

TEST(DataManagerTest, StatsAccumulate) {
  ChannelBroker broker(TransportKind::kInProcess);
  DataManager dm(broker);
  dm.setup(TaskWiring{AppId(1), TaskId(0), {}, {}});
  common::Rng rng(1);
  tasklib::TaskContext ctx{1.0, &rng};
  (void)dm.run(tasklib::builtin_registry(), "synth_source", ctx);
  EXPECT_EQ(dm.stats().messages_received, 0u);
  EXPECT_EQ(dm.stats().messages_sent, 0u);
}

TEST(DataManagerTest, InputChannelClosedIsError) {
  ChannelBroker broker(TransportKind::kInProcess);
  const auto& registry = tasklib::builtin_registry();
  TaskWiring wiring{AppId(1), TaskId(1), {TaskId(0)}, {}};

  std::string error;
  std::jthread consumer([&] {
    try {
      DataManager dm(broker);
      dm.setup(wiring);
      common::Rng rng(1);
      tasklib::TaskContext ctx{1.0, &rng};
      (void)dm.run(registry, "synth_sink", ctx);
    } catch (const std::exception& e) {
      error = e.what();
    }
  });
  // The producer connects but closes without sending.
  auto sender =
      broker.open_send(LinkKey{AppId(1), TaskId(0), TaskId(1)});
  sender->close();
  consumer.join();
  EXPECT_NE(error.find("closed"), std::string::npos) << error;
}

// ----------------------------------------------------- frame pool (D13)

TEST(FramePool, SizeClassesRoundUpToPowersOfTwo) {
  FramePool pool;
  EXPECT_EQ(pool.allocate(1).capacity(), 256u);
  EXPECT_EQ(pool.allocate(256).capacity(), 256u);
  EXPECT_EQ(pool.allocate(257).capacity(), 512u);
  EXPECT_EQ(pool.allocate(5000).capacity(), 8192u);

  Frame f = pool.allocate(300);
  EXPECT_EQ(f.size(), 300u);
  f.resize(100);
  EXPECT_EQ(f.size(), 100u);
  f.resize(512);  // re-grow within capacity is fine
  EXPECT_EQ(f.size(), 512u);
  EXPECT_THROW(f.resize(513), StateError);
}

TEST(FramePool, ReusesRecycledSlabs) {
  FramePool pool;
  { Frame f = pool.allocate(1000); }  // heap miss, recycled on drop
  const auto s1 = pool.stats();
  EXPECT_EQ(s1.reuse_misses, 1u);
  EXPECT_EQ(s1.slabs_allocated, 1u);
  EXPECT_EQ(s1.free_slabs, 1u);

  { Frame f = pool.allocate(900); }  // same 1024-byte class: a hit
  const auto s2 = pool.stats();
  EXPECT_EQ(s2.reuse_hits, 1u);
  EXPECT_EQ(s2.slabs_allocated, 1u);

  pool.trim();
  EXPECT_EQ(pool.stats().free_slabs, 0u);
}

TEST(FramePool, ViewPinsSlabAcrossChurn) {
  FramePool pool;
  Frame f = pool.allocate(512);
  for (std::size_t i = 0; i < f.size(); ++i) {
    f.data()[i] = static_cast<std::byte>(i & 0xFF);
  }
  const std::vector<std::byte> expected = f.view().to_vector();
  FrameView pinned = f.view();
  f.reset();  // the view alone now keeps the slab out of the free list

  for (int i = 0; i < 64; ++i) {
    Frame churn = pool.allocate(512);
    std::fill_n(churn.data(), churn.size(), std::byte{0xEE});
  }
  EXPECT_EQ(pinned.to_vector(), expected);

  const auto before = pool.stats();
  pinned.reset();  // last reference: only now does the slab park
  EXPECT_EQ(pool.stats().free_slabs, before.free_slabs + 1);
}

TEST(FramePool, SubviewSharesTheSlab) {
  FramePool pool;
  Frame f = pool.allocate(64);
  for (std::size_t i = 0; i < f.size(); ++i) {
    f.data()[i] = static_cast<std::byte>(i);
  }
  const FrameView whole = f.view();
  const FrameView mid = whole.subview(16, 32);
  EXPECT_EQ(mid.size(), 32u);
  EXPECT_EQ(mid.data(), whole.data() + 16);  // zero-copy: same bytes

  const FrameView nested = mid.subview(8, 8);
  EXPECT_EQ(nested.data(), whole.data() + 24);
  EXPECT_THROW((void)whole.subview(60, 8), StateError);
}

TEST(FramePool, HighWaterTracksPeakUse) {
  FramePool pool;
  {
    Frame a = pool.allocate(1024);
    Frame b = pool.allocate(1024);
    EXPECT_EQ(pool.stats().bytes_in_use, 2048u);
  }
  EXPECT_EQ(pool.stats().bytes_in_use, 0u);
  EXPECT_EQ(pool.stats().high_water_bytes, 2048u);
}

TEST(FramePool, CopyOfMatchesSource) {
  const auto src = bytes_of("copied into the pool");
  const FrameView v = FramePool::global().copy_of(src);
  EXPECT_EQ(v.to_vector(), src);
}

TEST(FramePool, GlobalPoolExportsMetrics) {
  auto& registry = common::MetricsRegistry::global();
  FramePool::global().trim();  // force the next allocation to the heap
  const auto misses_before =
      registry.counter("datamgr.pool.reuse_misses").value();
  const auto slabs_before =
      registry.counter("datamgr.pool.slabs_allocated").value();
  Frame f = FramePool::global().allocate(1 << 14);
  EXPECT_GT(registry.counter("datamgr.pool.reuse_misses").value(),
            misses_before);
  EXPECT_GT(registry.counter("datamgr.pool.slabs_allocated").value(),
            slabs_before);
}

TEST(FramePool, ConcurrentChurnIsSafe) {
  // TSan target: allocation, view copying, subviews, and release racing
  // across threads on one pool.
  FramePool pool;
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  {
    std::vector<std::jthread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&pool, t] {
        std::vector<FrameView> held;
        for (int i = 0; i < kIters; ++i) {
          Frame f = pool.allocate(
              static_cast<std::size_t>((t * 37 + i) % 5000) + 1);
          f.data()[0] = static_cast<std::byte>(i);
          FrameView v = f.view();
          FrameView copy = v;  // refcount bump
          if (i % 7 == 0) held.push_back(copy.subview(0, f.size() / 2));
          if (held.size() > 16) held.erase(held.begin());
        }
      });
    }
  }
  EXPECT_EQ(pool.stats().bytes_in_use, 0u);
}

// --------------------------------------------- zero-copy channel paths

TEST(InProcChannel, FrameDeliveryIsZeroCopy) {
  auto [sender, receiver] = inproc_link();
  const FrameView sent = FramePool::global().copy_of(bytes_of("no copies"));
  sender->send_frame(sent);
  const auto got = receiver->receive_frame();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->data(), sent.data());  // the very same slab bytes
  EXPECT_EQ(got->to_vector(), sent.to_vector());
}

TEST(TcpChannel, FrameLimitExactBoundary) {
  TcpListener listener;
  std::unique_ptr<TcpChannel> server_end;
  std::jthread acceptor([&] { server_end = listener.accept(); });
  auto client_end = tcp_connect(listener.port());
  acceptor.join();

  server_end->set_max_message_bytes(64);
  client_end->send(std::vector<std::byte>(64));  // exactly at the limit
  EXPECT_EQ(server_end->receive()->size(), 64u);
  client_end->send(std::vector<std::byte>(65));  // one over
  EXPECT_THROW((void)server_end->receive(), TransportError);
}

TEST(TcpChannel, HugeFrameRoundTripThroughPool) {
  // > 64 MiB through the pooled scatter/gather send and the receiving
  // thread's own poll-and-recv loop, over many socket-buffer fills.
  constexpr std::size_t kBytes = (std::size_t{64} << 20) + 4097;
  TcpListener listener;
  std::unique_ptr<TcpChannel> server_end;
  std::jthread acceptor([&] { server_end = listener.accept(); });
  auto client_end = tcp_connect(listener.port());
  acceptor.join();

  Frame big = FramePool::global().allocate(kBytes);
  std::fill_n(big.data(), big.size(), std::byte{0});
  for (std::size_t i = 0; i < kBytes; i += 4093) {
    big.data()[i] = static_cast<std::byte>((i * 2654435761u) >> 13);
  }
  const FrameView sent = big.view();

  std::jthread sender([&] { client_end->send_frame(sent); });
  const auto got = server_end->receive_frame();
  sender.join();
  ASSERT_TRUE(got.has_value());
  ASSERT_EQ(got->size(), kBytes);
  EXPECT_TRUE(std::equal(got->begin(), got->end(), sent.begin()));
  FramePool::global().trim();  // don't keep two 128 MiB slabs parked
}

TEST(TcpChannel, EventLoopKeepsThreadCountFlat) {
  const auto thread_count = [] {
    std::size_t n = 0;
    for ([[maybe_unused]] const auto& entry :
         std::filesystem::directory_iterator("/proc/self/task")) {
      ++n;
    }
    return n;
  };

  TcpListener listener;
  std::vector<std::unique_ptr<TcpChannel>> ends;
  const auto connect_pair = [&] {
    std::unique_ptr<TcpChannel> server_end;
    std::jthread acceptor([&] { server_end = listener.accept(); });
    auto client_end = tcp_connect(listener.port());
    acceptor.join();
    ends.push_back(std::move(server_end));
    ends.push_back(std::move(client_end));
  };

  connect_pair();  // the baseline: one connected pair
  const std::size_t baseline_threads = thread_count();

  for (int i = 0; i < 16; ++i) connect_pair();

  // 32 more connections, zero more threads: a TcpChannel is read by
  // the thread that receives on it.
  EXPECT_LE(thread_count(), baseline_threads);

  // And they all still move bytes.
  ends[1]->send(bytes_of("ping"));
  EXPECT_EQ(string_of(*ends[0]->receive()), "ping");
  ends[33]->send(bytes_of("pong"));
  EXPECT_EQ(string_of(*ends[32]->receive()), "pong");
}

TEST_P(MpLibSweep, FrameRoundTrip) {
  auto ring = std::make_shared<RingChannel>(8);
  MessageEndpoint tx(GetParam(), ring);
  MessageEndpoint rx(GetParam(), ring);
  const auto payload = bytes_of("zero copy tagged");
  tx.send_frame(9, FramePool::global().copy_of(payload));
  const auto msg = rx.receive_frame();
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->tag, 9);
  EXPECT_EQ(msg->data.to_vector(), payload);
}

TEST(MpLib, PreparedFrameFansOutToAllConsumers) {
  // The engine's fan-out: one prepare() + serialize, N send_prepared()
  // calls shipping the SAME slab to every consumer link.
  auto a = std::make_shared<RingChannel>(8);
  auto b = std::make_shared<RingChannel>(8);
  MessageEndpoint tx_a(MpLibrary::kNcs, a);
  MessageEndpoint tx_b(MpLibrary::kNcs, b);
  MessageEndpoint rx_a(MpLibrary::kNcs, a);
  MessageEndpoint rx_b(MpLibrary::kNcs, b);

  const auto body = bytes_of("fan-out body");
  PreparedFrame prep = tx_a.prepare(5, body.size());
  ASSERT_EQ(prep.body().size(), body.size());
  std::memcpy(prep.body().data(), body.data(), body.size());
  const FrameView full = prep.frame.view();
  tx_a.send_prepared(full);
  tx_b.send_prepared(full);

  for (auto* rx : {&rx_a, &rx_b}) {
    const auto msg = rx->receive_frame();
    ASSERT_TRUE(msg.has_value());
    EXPECT_EQ(msg->tag, 5);
    EXPECT_EQ(msg->data.to_vector(), body);
    // Zero-copy end to end: the delivered body aliases the prepared slab.
    EXPECT_EQ(msg->data.data(), full.data() + prep.body_offset);
  }

  // Both NCS endpoints advanced their sequence numbers in lockstep, so
  // a follow-up message still passes the receiver's sequence check.
  tx_a.send(6, body);
  EXPECT_EQ(rx_a.receive()->tag, 6);
}

TEST(MpLib, PvmHasNoSingleEnvelope) {
  auto ring = std::make_shared<RingChannel>(8);
  MessageEndpoint tx(MpLibrary::kPvm, ring);
  EXPECT_THROW((void)tx.prepare(1, 16), StateError);
}


// --------------------------------------------- communication proxy (D13)

std::uint64_t counter_value(const char* name) {
  return common::MetricsRegistry::global().counter(name).value();
}

std::size_t open_fd_count() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    ++n;
  }
  return n;
}

std::size_t thread_count() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

TEST(CommProxy, ReusesConnectionsAcrossEngineRuns) {
  // Fifty runs of the five-link C3I pipeline over TCP on one engine:
  // every link is carried by the proxy, and after the first run every
  // link leases a connection the previous run returned.
  const afg::FlowGraph graph = sim::make_c3i_graph();
  ASSERT_EQ(graph.link_count(), 5u);
  sched::AllocationTable allocation("c3i");
  std::uint32_t host = 0;
  for (const auto& node : graph.tasks()) {
    sched::AllocationEntry entry;
    entry.task = node.id;
    entry.task_label = node.label;
    entry.library_task = node.library_task;
    entry.hosts = {common::HostId(host++)};
    entry.site = common::SiteId(0);
    allocation.add(entry);
  }
  rt::EngineConfig config;
  config.transport = TransportKind::kTcp;
  rt::ExecutionEngine engine(tasklib::builtin_registry(), config);

  const std::uint64_t links0 = counter_value("datamgr.proxy.links");
  const std::uint64_t opened0 =
      counter_value("datamgr.proxy.connections_opened");
  std::uint64_t opened_after_warmup = 0;
  std::size_t fds_after_warmup = 0;
  std::size_t threads_after_warmup = 0;
  for (int run = 0; run < 50; ++run) {
    const auto result = engine.execute(graph, allocation);
    ASSERT_EQ(result.records.size(), graph.task_count());
    if (run == 2) {
      opened_after_warmup = counter_value("datamgr.proxy.connections_opened");
      fds_after_warmup = open_fd_count();
      threads_after_warmup = thread_count();
    }
  }
  EXPECT_EQ(counter_value("datamgr.proxy.links") - links0, 250u);
  const std::uint64_t opened =
      counter_value("datamgr.proxy.connections_opened");
  EXPECT_EQ(opened, opened_after_warmup) << "connections kept being opened";
  EXPECT_LE(opened - opened0, graph.link_count())
      << "more connections than links open at once";
  EXPECT_EQ(open_fd_count(), fds_after_warmup);
  // One reader per pooled connection, parked stage threads reused: a
  // run past the warm-up starts no thread.
  EXPECT_EQ(thread_count(), threads_after_warmup);
}

TEST(CommProxy, EarlyClosingConsumersCostNoConnection) {
  // A batch consumer reads its one frame and closes before the end
  // marker arrives.  The proxy discards nothing and resets nothing, and
  // the connection goes back to the idle set intact every time.
  ChannelBroker broker(TransportKind::kTcp);
  const std::uint64_t opened0 =
      counter_value("datamgr.proxy.connections_opened");
  const std::uint64_t resets0 = counter_value("datamgr.proxy.resets");
  for (std::uint32_t i = 0; i < 1000; ++i) {
    const LinkKey key{AppId(40), TaskId(i), TaskId(i + 1)};
    auto receiver = broker.open_receive(key);
    auto sender = broker.open_send(key);
    const std::string frame = "frame " + std::to_string(i);
    sender->send(bytes_of(frame));
    auto got = receiver->receive_for(5.0);
    ASSERT_TRUE(got.has_value()) << i;
    ASSERT_EQ(string_of(*got), frame);
    receiver->close();  // before the end marker
    sender->close();
  }
  EXPECT_LE(counter_value("datamgr.proxy.connections_opened") - opened0, 1u);
  EXPECT_EQ(counter_value("datamgr.proxy.resets"), resets0);
}

TEST(CommProxy, ProducerThatSendsNothingStillEndsTheStream) {
  // The open header rides with the end marker when no frame went first,
  // so the consumer sees end of stream, not a deadline.
  ChannelBroker broker(TransportKind::kTcp);
  const LinkKey key{AppId(47), TaskId(0), TaskId(1)};
  auto receiver = broker.open_receive(key);
  broker.open_send(key)->close();
  EXPECT_EQ(receiver->receive_for(5.0), std::nullopt);
}

TEST(CommProxy, ConsumerThatLeavesResetsItsProducer) {
  // A streaming producer whose consumer closes after three frames gets
  // TransportError within a second, as a peer's shutdown gave it, and
  // the connection it used carries the next link intact.
  ChannelBroker broker(TransportKind::kTcp);
  const LinkKey key{AppId(41), TaskId(0), TaskId(1)};
  auto receiver = broker.open_receive(key);
  auto sender = broker.open_send(key);

  using Clock = std::chrono::steady_clock;
  std::atomic<Clock::rep> closed_at{0};
  std::jthread consumer([&] {
    for (int i = 0; i < 3; ++i) ASSERT_TRUE(receiver->receive_for(5.0));
    receiver->close();
    closed_at.store(Clock::now().time_since_epoch().count());
  });
  const auto t0 = Clock::now();
  bool reset = false;
  try {
    while (seconds_since(t0) < 10.0) {
      sender->send(bytes_of("stream frame"));
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  } catch (const TransportError&) {
    reset = true;
  }
  const auto threw_at = Clock::now();
  consumer.join();
  ASSERT_TRUE(reset) << "the producer never learned its consumer left";
  const Clock::time_point closed(Clock::duration(closed_at.load()));
  EXPECT_LT(std::chrono::duration<double>(threw_at - closed).count(), 1.0);
  sender->close();  // end marker: the proxy unbinds the connection

  const std::uint64_t opened0 =
      counter_value("datamgr.proxy.connections_opened");
  const LinkKey next{AppId(41), TaskId(2), TaskId(3)};
  auto next_receiver = broker.open_receive(next);
  auto next_sender = broker.open_send(next);
  next_sender->send(bytes_of("intact"));
  next_sender->close();
  EXPECT_EQ(string_of(*next_receiver->receive_for(5.0)), "intact");
  EXPECT_EQ(next_receiver->receive_for(5.0), std::nullopt);
  EXPECT_EQ(counter_value("datamgr.proxy.connections_opened"), opened0)
      << "the reset connection was not reused";
}

TEST(CommProxy, ConsumerThatLeavesAPausedLinkResetsItsProducer) {
  // The consumer reads nothing, so its link's reader stops at the 8 MiB
  // high water and the producer blocks once the socket buffers fill.
  // When the consumer leaves, the reader must wake, discard the rest of
  // the link and reset the producer, whose send throws within a second.
  using Clock = std::chrono::steady_clock;
  ChannelBroker broker(TransportKind::kTcp);
  const LinkKey key{AppId(48), TaskId(0), TaskId(1)};
  auto receiver = broker.open_receive(key);

  // The producer owns everything it touches, so a producer that is
  // never reset is left blocked, not joined, and the test fails.
  struct Producer {
    std::atomic<int> sent{0};
    std::promise<Clock::time_point> reset;
  };
  auto producer = std::make_shared<Producer>();
  std::future<Clock::time_point> reset = producer->reset.get_future();
  std::thread([sender = broker.open_send(key), producer] {
    const std::vector<std::byte> chunk(std::size_t{1} << 20, std::byte{3});
    const auto t0 = Clock::now();
    try {
      while (seconds_since(t0) < 10.0) {
        sender->send(chunk);
        producer->sent.fetch_add(1);
      }
    } catch (const TransportError&) {
      producer->reset.set_value(Clock::now());
    }
    sender->close();
  }).detach();

  // The link is paused once the count holds still above the 8 MiB high
  // water.  A slow reader (a sanitizer build) can hold it still below
  // that for a while before the link fills, so a stall below it does
  // not end the wait; reaching 256 or the 5 s deadline does.
  int last = -1;
  int stable = 0;
  const auto wait_from = Clock::now();
  while (!(stable >= 5 && last > 8) && last < 256 &&
         seconds_since(wait_from) < 5.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const int now = producer->sent.load();
    stable = now == last ? stable + 1 : 0;
    last = now;
  }
  ASSERT_GT(last, 8) << "the link never reached the high water";
  ASSERT_LT(last, 256) << "the producer was never held back";

  const auto closed_at = Clock::now();
  receiver->close();
  ASSERT_EQ(reset.wait_for(std::chrono::seconds(2)), std::future_status::ready)
      << "the producer never learned its consumer left";
  EXPECT_LT(std::chrono::duration<double>(reset.get() - closed_at).count(),
            1.0);
}

TEST(CommProxy, SlowLinkDoesNotStallAnother) {
  // Link 1's consumer stops reading, so its connection pauses at 8 MiB
  // with the rest of its bytes still in flight.  Link 2, open at the
  // same time, still delivers: the pause stops only link 1's
  // connection, where a connection shared by both links would hold
  // link 2's frame behind link 1's unread bytes.
  ChannelBroker broker(TransportKind::kTcp);
  const LinkKey slow{AppId(44), TaskId(0), TaskId(1)};
  const LinkKey fast{AppId(44), TaskId(2), TaskId(3)};
  auto slow_rx = broker.open_receive(slow);
  auto fast_rx = broker.open_receive(fast);
  auto slow_tx = broker.open_send(slow);
  auto fast_tx = broker.open_send(fast);

  constexpr int kChunks = 64;  // 64 MiB: past the pause and the buffers
  const std::vector<std::byte> chunk(std::size_t{1} << 20, std::byte{7});
  std::atomic<int> sent{0};
  std::jthread flooder([&] {
    for (int i = 0; i < kChunks; ++i) {
      slow_tx->send(chunk);
      sent.fetch_add(1);
    }
    slow_tx->close();
  });
  // Let link 1 run into its pause: its producer stops making progress,
  // blocked or done once the socket buffers took the rest.
  int last = -1;
  for (int stable = 0; stable < 5;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const int now = sent.load();
    stable = now == last ? stable + 1 : 0;
    last = now;
  }
  ASSERT_GT(sent.load(), 8) << "link 1 never reached the pause";

  fast_tx->send(bytes_of("not stalled"));
  EXPECT_EQ(string_of(*fast_rx->receive_for(5.0)), "not stalled");

  // Link 1's consumer catches up: every chunk, then end of stream.
  for (int i = 0; i < kChunks; ++i) {
    auto got = slow_rx->receive_for(10.0);
    ASSERT_TRUE(got.has_value()) << i;
    ASSERT_EQ(got->size(), chunk.size());
  }
  EXPECT_EQ(slow_rx->receive_for(10.0), std::nullopt);
  fast_tx->close();
  EXPECT_EQ(fast_rx->receive_for(5.0), std::nullopt);
}

TEST(CommProxy, PausedLinkDoesNotPassItsUnreadBytesToTheNextLink) {
  // Link 1 sends just past the 8 MiB pause and closes while its
  // consumer has read nothing, so its last frame and end marker still
  // sit in the socket.  The next link must not lease that connection
  // and queue behind them.
  ChannelBroker broker(TransportKind::kTcp);
  const LinkKey first{AppId(46), TaskId(0), TaskId(1)};
  const LinkKey next{AppId(46), TaskId(2), TaskId(3)};
  auto first_rx = broker.open_receive(first);
  {
    auto first_tx = broker.open_send(first);
    const std::vector<std::byte> chunk(std::size_t{1} << 20, std::byte{1});
    for (int i = 0; i < 8; ++i) first_tx->send(chunk);
    first_tx->send(bytes_of("tail"));
    first_tx->close();
  }
  auto next_rx = broker.open_receive(next);
  auto next_tx = broker.open_send(next);
  next_tx->send(bytes_of("not queued"));
  next_tx->close();
  EXPECT_EQ(string_of(*next_rx->receive_for(2.0)), "not queued");

  for (int i = 0; i < 8; ++i) ASSERT_TRUE(first_rx->receive_for(5.0));
  EXPECT_EQ(string_of(*first_rx->receive_for(5.0)), "tail");
  EXPECT_EQ(first_rx->receive_for(5.0), std::nullopt);
}

TEST(CommProxy, ProducerToAClosedConsumerDoesNotStall) {
  // A producer whose consumer has already closed is refused at once:
  // no connect-retry loop, and its frame reaches no one -- not even a
  // link registered later by another consumer.
  ChannelBroker broker(TransportKind::kTcp);
  const LinkKey gone{AppId(42), TaskId(0), TaskId(1)};
  const LinkKey other{AppId(42), TaskId(2), TaskId(3)};
  auto gone_rx = broker.open_receive(gone);
  gone_rx->close();
  auto other_rx = broker.open_receive(other);

  const auto t0 = std::chrono::steady_clock::now();
  try {
    auto sender = broker.open_send(gone);
    sender->send(bytes_of("for no one"));
    sender->close();
  } catch (const TransportError&) {
    // Refused: as good as a discarded frame.
  }
  EXPECT_LT(seconds_since(t0), 0.1);
  EXPECT_EQ(gone_rx->receive_for(0.05), std::nullopt);
  EXPECT_THROW((void)other_rx->receive_for(0.05), TransportError);
}

TEST(TcpChannel, SocketsAreCloseOnExec) {
  // A site daemon fork+execs from the coordinator; it must inherit none
  // of the coordinator's sockets: listeners, accepted and connected
  // control channels, the proxy's listener and pooled data connections.
  TcpListener listener;
  std::unique_ptr<TcpChannel> server_end;
  std::jthread acceptor([&] { server_end = listener.accept(); });
  auto client_end = tcp_connect(listener.port());
  acceptor.join();
  ChannelBroker broker(TransportKind::kTcp);
  const LinkKey key{AppId(43), TaskId(0), TaskId(1)};
  auto receiver = broker.open_receive(key);
  auto sender = broker.open_send(key);
  sender->send(bytes_of("x"));
  ASSERT_EQ(string_of(*receiver->receive_for(5.0)), "x");

  FILE* child = ::popen("ls -l /proc/self/fd", "r");
  ASSERT_NE(child, nullptr);
  std::string listing;
  std::size_t sockets = 0;
  char line[512];
  while (std::fgets(line, sizeof(line), child) != nullptr) {
    listing += line;
    // "... <fd> -> socket:[inode]"; stdin, stdout and stderr are the
    // test runner's, not ours.
    const std::string entry = line;
    const std::size_t arrow = entry.find(" -> socket:");
    if (arrow == std::string::npos) continue;
    const std::size_t name = entry.rfind(' ', arrow - 1) + 1;
    if (std::stoi(entry.substr(name, arrow - name)) > 2) ++sockets;
  }
  ::pclose(child);
  EXPECT_EQ(sockets, 0u) << listing;
}

// The proxy's framing wall: raw connections send truncated, corrupt and
// out-of-order frames.  Only the offending connection, or the link it
// had open, fails -- with TransportError -- and a healthy link open
// through the proxy at the same time keeps delivering.

/// A raw blocking connection to the proxy.
class RawProxyConnection {
 public:
  RawProxyConnection() : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(CommProxy::global().port());
    EXPECT_EQ(
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  }
  ~RawProxyConnection() { ::close(fd_); }
  RawProxyConnection(const RawProxyConnection&) = delete;
  RawProxyConnection& operator=(const RawProxyConnection&) = delete;

  void write(std::span<const std::byte> bytes) {
    EXPECT_EQ(::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
  }
  void write(proxy_wire::Kind kind, std::uint64_t arg) {
    write(proxy_wire::encode(kind, arg));
  }
  /// Reads up to n bytes (fewer at EOF) within the timeout.
  std::vector<std::byte> read(std::size_t n, double timeout_s = 5.0) {
    timeval tv{static_cast<time_t>(timeout_s),
               static_cast<suseconds_t>((timeout_s - static_cast<time_t>(
                                                         timeout_s)) *
                                        1e6)};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    std::vector<std::byte> out(n);
    std::size_t got = 0;
    while (got < n) {
      const ssize_t r = ::recv(fd_, out.data() + got, n - got, 0);
      if (r <= 0) break;
      got += static_cast<std::size_t>(r);
    }
    out.resize(got);
    return out;
  }

 private:
  int fd_;
};

/// A link registered with the proxy, with a healthy companion link
/// opened through the broker alongside it.
struct WallFixture {
  ChannelBroker broker{TransportKind::kTcp};
  LinkKey healthy_key{AppId(45), TaskId(0), TaskId(1)};
  std::shared_ptr<Channel> healthy_rx = broker.open_receive(healthy_key);
  std::shared_ptr<Channel> healthy_tx = broker.open_send(healthy_key);
  int healthy_frames = 0;

  /// The healthy link still moves a frame.
  void expect_healthy() {
    const std::string frame = "healthy " + std::to_string(healthy_frames++);
    healthy_tx->send(bytes_of(frame));
    auto got = healthy_rx->receive_for(5.0);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(string_of(*got), frame);
  }
  ~WallFixture() {
    healthy_tx->close();
    EXPECT_EQ(healthy_rx->receive_for(5.0), std::nullopt);
  }
};

/// Drains `receiver` until it stops; returns the frames delivered and
/// whether it ended in TransportError (true) or end of stream (false).
std::pair<std::vector<std::string>, bool> drain(Channel& receiver,
                                                double timeout_s = 5.0) {
  std::vector<std::string> frames;
  try {
    while (auto got = receiver.receive_for(timeout_s)) {
      frames.push_back(string_of(*got));
    }
  } catch (const TransportError&) {
    return {frames, true};
  }
  return {frames, false};
}

TEST(CommProxy, FramingWallTruncationAtEveryPrefix) {
  WallFixture wall;
  const std::string body = "truncated body";
  for (std::size_t cut = 0;; ++cut) {
    CommProxy::Link link = CommProxy::global().open_link();
    std::vector<std::byte> wire;
    const auto append = [&wire](std::span<const std::byte> bytes) {
      wire.insert(wire.end(), bytes.begin(), bytes.end());
    };
    append(proxy_wire::encode(proxy_wire::Kind::kOpen, link.address.link));
    append(proxy_wire::encode(proxy_wire::Kind::kData, body.size()));
    append(bytes_of(body));
    append(proxy_wire::encode(proxy_wire::Kind::kEnd, link.address.link));
    if (cut > wire.size()) break;
    {
      RawProxyConnection raw;
      raw.write(std::span(wire.data(), cut));
    }  // closed: the proxy sees EOF right after the prefix
    constexpr std::size_t kOpen = proxy_wire::kHeaderBytes;
    const std::size_t data_end = 2 * kOpen + body.size();
    if (cut < kOpen) {
      // The link was never opened: a well-formed producer still can.
      auto sender = CommProxy::global().lease(link.address);
      sender->send(bytes_of("late"));
      sender->close();
      const auto [frames, failed] = drain(*link.receiver);
      EXPECT_EQ(frames, std::vector<std::string>{"late"}) << cut;
      EXPECT_FALSE(failed) << cut;
    } else {
      const auto [frames, failed] = drain(*link.receiver);
      if (cut == wire.size()) {
        EXPECT_EQ(frames, std::vector<std::string>{body});
        EXPECT_FALSE(failed);
      } else {
        EXPECT_EQ(frames.size(), cut >= data_end ? 1u : 0u) << cut;
        EXPECT_TRUE(failed) << "cut at " << cut << " ended cleanly";
      }
    }
    wall.expect_healthy();
  }
}

TEST(CommProxy, FramingWallGarbageNeverEndsCleanly) {
  WallFixture wall;
  common::Rng rng(7);
  for (int round = 0; round < 200; ++round) {
    CommProxy::Link link = CommProxy::global().open_link();
    std::vector<std::byte> garbage(1 + rng() % 64);
    for (auto& b : garbage) b = static_cast<std::byte>(rng() & 0xFF);
    {
      RawProxyConnection raw;
      if (round % 2 == 0) {
        raw.write(proxy_wire::Kind::kOpen, link.address.link);
      }
      raw.write(garbage);
    }
    if (round % 2 == 0) {
      const auto [frames, failed] = drain(*link.receiver);
      EXPECT_TRUE(failed) << "garbage after open ended cleanly, round "
                          << round;
    } else {
      // Garbage on an idle connection touches no link.
      EXPECT_THROW((void)link.receiver->receive_for(0.001), TransportError);
    }
    wall.expect_healthy();
  }
}

TEST(CommProxy, FramingWallOversizeLengthFailsTheLink) {
  WallFixture wall;
  CommProxy::Link link = CommProxy::global().open_link();
  RawProxyConnection raw;
  raw.write(proxy_wire::Kind::kOpen, link.address.link);
  raw.write(proxy_wire::Kind::kData, std::uint64_t{1} << 40);
  try {
    (void)link.receiver->receive_for(5.0);
    ADD_FAILURE() << "oversize frame delivered";
  } catch (const TransportError& e) {
    EXPECT_NE(std::string(e.what()).find("frame limit"), std::string::npos)
        << e.what();
  }
  EXPECT_TRUE(raw.read(1).empty()) << "the proxy kept the connection";
  wall.expect_healthy();
}

TEST(CommProxy, FramingWallUnknownLinkIsResetAndTheConnectionSurvives) {
  WallFixture wall;
  const std::uint64_t unknown = std::uint64_t{1} << 50;
  RawProxyConnection raw;
  raw.write(proxy_wire::Kind::kOpen, unknown);
  raw.write(proxy_wire::Kind::kData, 5);
  raw.write(bytes_of("lost!"));
  const auto reply = raw.read(proxy_wire::kHeaderBytes);
  ASSERT_EQ(reply.size(), proxy_wire::kHeaderBytes);
  const auto expected = proxy_wire::encode(proxy_wire::Kind::kReset, unknown);
  EXPECT_TRUE(std::equal(reply.begin(), reply.end(), expected.begin()));
  raw.write(proxy_wire::Kind::kEnd, unknown);
  wall.expect_healthy();

  // The same connection then carries a registered link intact.
  CommProxy::Link link = CommProxy::global().open_link();
  raw.write(proxy_wire::Kind::kOpen, link.address.link);
  raw.write(proxy_wire::Kind::kData, 6);
  raw.write(bytes_of("intact"));
  raw.write(proxy_wire::Kind::kEnd, link.address.link);
  const auto [frames, failed] = drain(*link.receiver);
  EXPECT_EQ(frames, std::vector<std::string>{"intact"});
  EXPECT_FALSE(failed);
}

TEST(CommProxy, FramingWallSecondOpenWhileBoundFailsOnlyTheBoundLink) {
  WallFixture wall;
  CommProxy::Link bound = CommProxy::global().open_link();
  CommProxy::Link second = CommProxy::global().open_link();
  RawProxyConnection raw;
  raw.write(proxy_wire::Kind::kOpen, bound.address.link);
  raw.write(proxy_wire::Kind::kOpen, second.address.link);
  EXPECT_TRUE(drain(*bound.receiver).second);
  EXPECT_TRUE(raw.read(1).empty()) << "the proxy kept the connection";
  wall.expect_healthy();
  // The second link was never claimed: a well-formed producer opens it.
  auto sender = CommProxy::global().lease(second.address);
  sender->send(bytes_of("second"));
  sender->close();
  const auto [frames, failed] = drain(*second.receiver);
  EXPECT_EQ(frames, std::vector<std::string>{"second"});
  EXPECT_FALSE(failed);
}

TEST(CommProxy, FramingWallDataOutsideALinkDropsOnlyTheConnection) {
  WallFixture wall;
  RawProxyConnection raw;
  raw.write(proxy_wire::Kind::kData, 4);
  raw.write(bytes_of("oops"));
  EXPECT_TRUE(raw.read(1).empty()) << "the proxy kept the connection";
  wall.expect_healthy();
}

}  // namespace
}  // namespace vdce::dm
