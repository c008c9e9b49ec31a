// EventLoop's contract on both backends (epoll and the poll fallback):
// registered fds with pending readiness — and ONLY those — come back from
// wait(), carrying their opaque data pointer; add/modify/remove keep the
// bookkeeping consistent through swap-removal; WakePipe wakeups survive a
// notify storm from another thread; and the sharded referee accepts a
// burst of simultaneous connections arriving mid-round.
#include "net/event_loop.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/frame.h"
#include "core/f0_estimator.h"
#include "core/params.h"
#include "net/referee_server.h"
#include "net/socket.h"
#include "net/tcp_transport.h"

namespace ustream::net {
namespace {

std::vector<EventLoop::Backend> backends() {
  std::vector<EventLoop::Backend> b{EventLoop::Backend::kPoll};
#ifdef __linux__
  b.push_back(EventLoop::Backend::kEpoll);
#endif
  return b;
}

std::string backend_name(EventLoop::Backend b) {
  return b == EventLoop::Backend::kPoll ? "poll" : "epoll";
}

// A nonblocking pipe pair the loop can watch: readable once written to.
struct Pipe {
  Pipe() {
    int fds[2];
    EXPECT_EQ(::pipe(fds), 0);
    read = Socket(fds[0]);
    write = Socket(fds[1]);
    set_nonblocking(read.fd(), true);
    set_nonblocking(write.fd(), true);
  }
  void make_readable() {
    const std::uint8_t byte = 1;
    ASSERT_EQ(::write(write.fd(), &byte, 1), 1);
  }
  void drain() {
    std::uint8_t buf[16];
    while (::read(read.fd(), buf, sizeof(buf)) > 0) {
    }
  }
  Socket read;
  Socket write;
};

TEST(EventLoop, ReportsOnlyReadyFds) {
  for (const auto backend : backends()) {
    SCOPED_TRACE(backend_name(backend));
    EventLoop loop(backend);
    constexpr std::size_t kPipes = 16;
    std::vector<Pipe> pipes(kPipes);
    std::vector<int> marks(kPipes);
    for (std::size_t i = 0; i < kPipes; ++i) {
      marks[i] = static_cast<int>(i);
      loop.add(pipes[i].read.fd(), EventLoop::kRead, &marks[i]);
    }
    EXPECT_EQ(loop.watched(), kPipes);

    // Nothing readable: zero events, not kPipes events with empty masks.
    std::vector<EventLoop::Event> events;
    EXPECT_EQ(loop.wait(events, 0), 0u);

    // Exactly two readable: exactly those two come back — the dispatch
    // path scales with READY fds, not registered fds (the O(n)-scan fix).
    pipes[3].make_readable();
    pipes[11].make_readable();
    ASSERT_EQ(loop.wait(events, 1000), 2u);
    std::vector<int> got;
    for (const auto& ev : events) {
      EXPECT_NE(ev.events & EventLoop::kRead, 0u);
      got.push_back(*static_cast<int*>(ev.data));
    }
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, (std::vector<int>{3, 11}));

    // Level-triggered: still pending until drained.
    ASSERT_EQ(loop.wait(events, 0), 2u);
    pipes[3].drain();
    pipes[11].drain();
    EXPECT_EQ(loop.wait(events, 0), 0u);
  }
}

TEST(EventLoop, ModifyChangesInterestAndData) {
  for (const auto backend : backends()) {
    SCOPED_TRACE(backend_name(backend));
    EventLoop loop(backend);
    Pipe pipe;
    int first = 1, second = 2;
    loop.add(pipe.read.fd(), EventLoop::kRead, &first);
    pipe.make_readable();
    std::vector<EventLoop::Event> events;
    ASSERT_EQ(loop.wait(events, 1000), 1u);
    EXPECT_EQ(events[0].data, &first);

    // Interest cleared: the still-readable fd must stop being reported.
    loop.modify(pipe.read.fd(), 0, &first);
    EXPECT_EQ(loop.wait(events, 0), 0u);

    // Interest restored with new data: reported again, new pointer.
    loop.modify(pipe.read.fd(), EventLoop::kRead, &second);
    ASSERT_EQ(loop.wait(events, 0), 1u);
    EXPECT_EQ(events[0].data, &second);
  }
}

TEST(EventLoop, WriteInterestOnWritablePipe) {
  for (const auto backend : backends()) {
    SCOPED_TRACE(backend_name(backend));
    EventLoop loop(backend);
    Pipe pipe;
    int mark = 7;
    loop.add(pipe.write.fd(), EventLoop::kWrite, &mark);
    std::vector<EventLoop::Event> events;
    ASSERT_EQ(loop.wait(events, 1000), 1u);  // empty pipe: writable now
    EXPECT_NE(events[0].events & EventLoop::kWrite, 0u);
    EXPECT_EQ(events[0].data, &mark);
  }
}

TEST(EventLoop, RemoveSurvivesSwapRemoval) {
  // The poll backend swap-removes into the vacated slot; removing from the
  // middle then exercising the swapped-in fd is exactly the case that
  // breaks naive index bookkeeping. Run the same sequence on epoll too.
  for (const auto backend : backends()) {
    SCOPED_TRACE(backend_name(backend));
    EventLoop loop(backend);
    constexpr std::size_t kPipes = 8;
    std::vector<Pipe> pipes(kPipes);
    std::vector<int> marks(kPipes);
    for (std::size_t i = 0; i < kPipes; ++i) {
      marks[i] = static_cast<int>(i);
      loop.add(pipes[i].read.fd(), EventLoop::kRead, &marks[i]);
    }
    // Remove from the middle (the LAST entry gets swapped into slot 2).
    loop.remove(pipes[2].read.fd());
    loop.remove(pipes[5].read.fd());
    EXPECT_EQ(loop.watched(), kPipes - 2);

    for (std::size_t i = 0; i < kPipes; ++i) pipes[i].make_readable();
    std::vector<EventLoop::Event> events;
    ASSERT_EQ(loop.wait(events, 1000), kPipes - 2);
    std::vector<int> got;
    for (const auto& ev : events) got.push_back(*static_cast<int*>(ev.data));
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, (std::vector<int>{0, 1, 3, 4, 6, 7}));

    // Removed fds can be re-added (fresh registration, fresh data).
    loop.add(pipes[2].read.fd(), EventLoop::kRead, &marks[2]);
    ASSERT_EQ(loop.wait(events, 1000), kPipes - 1);
  }
}

TEST(EventLoop, AddRejectsDuplicateRegistration) {
  for (const auto backend : backends()) {
    SCOPED_TRACE(backend_name(backend));
    EventLoop loop(backend);
    Pipe pipe;
    int mark = 0;
    loop.add(pipe.read.fd(), EventLoop::kRead, &mark);
    EXPECT_THROW(loop.add(pipe.read.fd(), EventLoop::kRead, &mark), InvalidArgument);
    EXPECT_EQ(loop.watched(), 1u);
  }
}

TEST(EventLoop, HangupReportedWhenPeerCloses) {
  for (const auto backend : backends()) {
    SCOPED_TRACE(backend_name(backend));
    EventLoop loop(backend);
    Pipe pipe;
    int mark = 0;
    loop.add(pipe.read.fd(), EventLoop::kRead, &mark);
    pipe.write.close();
    std::vector<EventLoop::Event> events;
    ASSERT_EQ(loop.wait(events, 1000), 1u);
    // Closed writer: POLLHUP / EPOLLHUP — readable EOF, reported as hangup
    // (some kernels also flag kRead; either way the caller must see it).
    EXPECT_NE(events[0].events & (EventLoop::kHangup | EventLoop::kRead), 0u);
  }
}

#ifdef __linux__
TEST(EventLoop, DefaultBackendIsEpollOnLinux) {
  EventLoop loop;
  EXPECT_EQ(loop.backend(), EventLoop::Backend::kEpoll);
}
#endif

TEST(EventLoop, WakePipeNotifyStormFromAnotherThread) {
  // A remote thread hammers notify() while the loop waits and drains: no
  // wakeup may be lost (the loop must always observe readiness after the
  // final notify), and the storm must not wedge the pipe (notify is
  // nonblocking and saturates silently).
  for (const auto backend : backends()) {
    SCOPED_TRACE(backend_name(backend));
    EventLoop loop(backend);
    WakePipe wake;
    int mark = 0;
    loop.add(wake.read_fd(), EventLoop::kRead, &mark);

    constexpr int kNotifies = 10'000;
    std::atomic<int> sent{0};
    std::thread stormer([&] {
      for (int i = 0; i < kNotifies; ++i) {
        wake.notify();
        sent.fetch_add(1, std::memory_order_release);
      }
    });

    std::vector<EventLoop::Event> events;
    int rounds = 0;
    // Keep draining until the storm is over AND the pipe is empty.
    for (;;) {
      const std::size_t n = loop.wait(events, 10);
      if (n > 0) {
        EXPECT_EQ(events[0].data, &mark);
        wake.drain();
        ++rounds;
      }
      if (sent.load(std::memory_order_acquire) == kNotifies && n == 0) break;
    }
    stormer.join();
    EXPECT_GE(rounds, 1);
    // After the final drain there is nothing pending.
    EXPECT_EQ(loop.wait(events, 0), 0u);
  }
}

TEST(EventLoop, RefereeAcceptStormMidRound) {
  // Satellite coverage for the sharded accept path: many clients connect
  // SIMULTANEOUSLY (each also pushing a frame and reading its ack) while
  // the shard loops are mid-round. Every site must land exactly once,
  // regardless of which SO_REUSEPORT acceptor the kernel picked.
  constexpr std::size_t kSites = 48;
  RefereeServerConfig config;
  config.sites = kSites;
  config.shards = 2;
  config.timeout = std::chrono::milliseconds(30'000);
  RefereeServer server(std::move(config));
  const std::uint16_t port = server.port();

  const auto params = EstimatorParams::for_guarantee(0.2, 0.1, 1234);
  std::thread pusher([port, &params] {
    std::vector<std::thread> clients;
    clients.reserve(kSites);
    for (std::size_t site = 0; site < kSites; ++site) {
      clients.emplace_back([port, site, &params] {
        F0Estimator est(params);
        est.add(site * 1000 + 1);
        const auto frame = frame_encode(
            {PayloadKind::kF0Estimator, static_cast<std::uint32_t>(site), 0},
            est.serialize());
        TcpTransportConfig tc;
        tc.port = port;
        TcpTransport transport(kSites, tc);
        EXPECT_EQ(transport.send_with_ack(site, frame), PushAck::kAccepted);
      });
    }
    for (auto& t : clients) t.join();
  });

  std::atomic<std::size_t> delivered{0};
  const auto result = server.run([&delivered](std::size_t, std::uint32_t, std::uint16_t, PayloadKind,
                                              std::vector<std::uint8_t>&&) {
    delivered.fetch_add(1, std::memory_order_relaxed);
    return true;
  });
  pusher.join();

  EXPECT_TRUE(result.report.complete());
  EXPECT_FALSE(result.timed_out);
  EXPECT_EQ(delivered.load(), kSites);
  EXPECT_EQ(result.report.sites_reported, kSites);
  EXPECT_EQ(result.report.duplicates_dropped, 0u);
  ASSERT_EQ(result.shards.size(), 2u);
  std::uint64_t shard_frames = 0;
  for (const auto& shard : result.shards) shard_frames += shard.messages;
  EXPECT_EQ(shard_frames, kSites);
}

}  // namespace
}  // namespace ustream::net
