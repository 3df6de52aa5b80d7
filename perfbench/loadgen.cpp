// perfbench_loadgen — the benchmark's load generator for recover_serve and
// recover_cluster.
//
// One process, one thread: every send and receive goes through a single
// epoll set, and the open-loop schedule is a timerfd in that set, so the
// generator never sleeps outside the poll.  Open-loop requests are timed
// from their due time; how late each one was actually sent is recorded.
//
//   perfbench_loadgen --port P --seed S [--keys unique|zipf]
//       --phases low:open:RATE:SECONDS,high:open:RATE:SECONDS,exp01:batch:N
//       [--rounds R] [--warm N [--warm-depth D]] [--warm-only] --out FILE
//       [--mark FILE,...] [--scrape ADMIN_PORT]
// The phase list runs R times in turn (rounds), so every phase samples
// the whole run rather than one stretch of it.  --warm sends N untimed
// requests of the phases' own traffic mix first, D at a time per
// connection.  The fixed load shape (connections, Zipf key space, phase
// gap) is in workload.hpp.
//   perfbench_loadgen --port P --replay FILE --out FILE
// sends every kReplayEvery-th answered timed request of FILE again, on
// one connection.
//
// Output (--out), tab-separated lines:
//   R phase round conn seq id due_ns sent_ns done_ns status request reply
//                                             (phase "warm": set-up traffic)
//   P index phase round start_ns end_ns mark_bytes...  (after each phase)
//   S index line                              (/metrics scraped at P index)
// `seq` is the request's line number on its connection (the ping that
// opens each connection is line 1), so `c<serial>-<seq>` in a daemon's
// access log names the same request.  stdout gets "READY <ns>" once the
// connections are open and warm, in CLOCK_MONOTONIC nanoseconds.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "workload.hpp"

namespace {

using perfbench::die;
using perfbench::flag;
using perfbench::flag_or;
using perfbench::now_ns;
using perfbench::Op;
using perfbench::split;

struct Record {
  std::string phase;
  int round = 0;
  int conn = -1;
  std::uint64_t seq = 0;
  std::uint64_t id = 0;
  std::int64_t due = 0;
  std::int64_t sent = 0;
  std::int64_t done = 0;
  std::string status = "timeout";
  std::string request;
  std::string reply;
};

struct Conn {
  int fd = -1;
  std::string rbuf;
  std::string wbuf;
  std::uint64_t seq = 0;
  bool want_write = false;  // EPOLLOUT armed: wbuf did not drain
};

int connect_to(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) die("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    die("connect to port " + std::to_string(port) + ": " +
        std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

/// Blocking exchange of one line (the connection-opening ping).
std::string round_trip(int fd, const std::string& line) {
  const std::string out = line + "\n";
  if (::send(fd, out.data(), out.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(out.size())) {
    die("ping send failed");
  }
  std::string in;
  char buf[4096];
  while (in.find('\n') == std::string::npos) {
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, 10'000) <= 0) die("ping timed out");
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) die("ping: connection closed");
    in.append(buf, static_cast<std::size_t>(n));
  }
  return in.substr(0, in.find('\n'));
}

bool parse_id(const std::string& reply, std::uint64_t& id) {
  const std::size_t at = reply.find("\"id\":");
  if (at == std::string::npos) return false;
  const char* p = reply.c_str() + at + 5;
  char* end = nullptr;
  id = std::strtoull(p, &end, 10);
  return end != p;
}

struct PhaseSpec {
  std::string name;
  std::string kind;  // open | batch
  double rate = 0;
  double seconds = 0;
  std::size_t count = 0;
  int depth = 1;  // outstanding requests per connection (closed loop)
};

class Generator {
 public:
  Generator(int port, int conns) {
    epfd_ = ::epoll_create1(0);
    tfd_ = ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK);
    if (epfd_ < 0 || tfd_ < 0) die("epoll/timerfd setup failed");
    add_fd(tfd_, EPOLLIN, -1);
    // Sequential connect + ping round trip: accept order is connection
    // order, so serials in the daemon's access log follow `conn`.
    for (int c = 0; c < conns; ++c) {
      Conn conn;
      conn.fd = connect_to(port);
      const std::string pong = round_trip(
          conn.fd, "{\"schema\":\"recover.req/1\",\"id\":0,\"method\":\"ping\"}");
      if (pong.find("\"ok\":true") == std::string::npos) die("ping refused");
      conn.seq = 1;
      conns_.push_back(std::move(conn));
    }
    for (std::size_t c = 0; c < conns_.size(); ++c) {
      ::fcntl(conns_[c].fd, F_SETFL,
              ::fcntl(conns_[c].fd, F_GETFL) | O_NONBLOCK);
      add_fd(conns_[c].fd, EPOLLIN, static_cast<int>(c));
    }
  }

  ~Generator() {
    for (auto& c : conns_) ::close(c.fd);
    ::close(tfd_);
    ::close(epfd_);
  }

  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  /// Runs one phase; returns false when it timed out (its unanswered
  /// requests stay recorded as "timeout").
  bool run(const PhaseSpec& spec, int round,
           const std::vector<std::string>& lines,
           const std::vector<std::uint64_t>& ids, std::int64_t timeout_ns) {
    phase_first_ = records_.size();
    next_ = 0;
    answered_ = 0;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      Record r;
      r.phase = spec.name;
      r.round = round;
      r.id = ids[i];
      r.request = lines[i];
      records_.push_back(std::move(r));
    }
    total_ = lines.size();
    const std::int64_t start = now_ns() + 2'000'000;
    const std::int64_t deadline = start + timeout_ns;
    interval_ns_ = spec.kind == "open" ? static_cast<std::int64_t>(1e9 / spec.rate)
                                       : 0;
    start_ns_ = start;
    open_loop_ = spec.kind == "open";
    if (open_loop_) {
      arm(start);
    } else {
      for (std::size_t c = 0; c < conns_.size(); ++c) {
        for (int k = 0; k < spec.depth; ++k) send_next(static_cast<int>(c), 0);
      }
    }
    epoll_event events[16];
    while (answered_ < total_) {
      const std::int64_t left = deadline - now_ns();
      if (left <= 0) return false;
      const int n = ::epoll_wait(epfd_, events, 16,
                                 static_cast<int>(left / 1'000'000 + 1));
      if (n < 0) {
        if (errno == EINTR) continue;
        die("epoll_wait failed");
      }
      for (int e = 0; e < n; ++e) {
        if (events[e].data.u64 == kTimerTag) {
          on_timer();
        } else {
          on_socket(static_cast<int>(events[e].data.u64 >> 32),
                    events[e].events);
        }
      }
    }
    return true;
  }

  [[nodiscard]] const std::vector<Record>& records() const {
    return records_;
  }
  [[nodiscard]] std::size_t phase_first() const { return phase_first_; }

 private:
  static constexpr std::uint64_t kTimerTag = ~std::uint64_t{0};

  void add_fd(int fd, std::uint32_t events, int tag) {
    epoll_event ev{};
    ev.events = events;
    ev.data.u64 = tag < 0 ? kTimerTag
                          : (static_cast<std::uint64_t>(tag) << 32) |
                                static_cast<std::uint32_t>(fd);
    if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev) != 0) die("epoll_ctl");
  }

  void want_write(int c, bool on) {
    Conn& conn = conns_[static_cast<std::size_t>(c)];
    if (conn.want_write == on) return;
    conn.want_write = on;
    epoll_event ev{};
    ev.events = EPOLLIN | (on ? EPOLLOUT : 0u);
    ev.data.u64 = (static_cast<std::uint64_t>(c) << 32) |
                  static_cast<std::uint32_t>(conn.fd);
    if (::epoll_ctl(epfd_, EPOLL_CTL_MOD, conn.fd, &ev) != 0) die("epoll_ctl");
  }

  void arm(std::int64_t at_ns) {
    itimerspec its{};
    its.it_value.tv_sec = at_ns / 1'000'000'000;
    its.it_value.tv_nsec = at_ns % 1'000'000'000;
    ::timerfd_settime(tfd_, TFD_TIMER_ABSTIME, &its, nullptr);
  }

  void on_timer() {
    std::uint64_t expirations = 0;
    (void)!::read(tfd_, &expirations, sizeof expirations);
    const std::int64_t now = now_ns();
    while (next_ < total_ && due(next_) <= now) {
      send_next(static_cast<int>(next_ % conns_.size()), due(next_));
    }
    if (next_ < total_) arm(due(next_));
  }

  [[nodiscard]] std::int64_t due(std::size_t i) const {
    return start_ns_ + static_cast<std::int64_t>(i) * interval_ns_;
  }

  void send_next(int c, std::int64_t due_ns) {
    if (next_ >= total_) return;
    Conn& conn = conns_[static_cast<std::size_t>(c)];
    Record& r = records_[phase_first_ + next_];
    ++next_;
    r.conn = c;
    r.seq = ++conn.seq;
    r.sent = now_ns();
    r.due = open_loop_ ? due_ns : r.sent;
    pending_[r.id] = phase_first_ + next_ - 1;
    const bool idle = conn.wbuf.empty();
    conn.wbuf += r.request;
    conn.wbuf += '\n';
    if (idle) flush(c);
  }

  void flush(int c) {
    Conn& conn = conns_[static_cast<std::size_t>(c)];
    while (!conn.wbuf.empty()) {
      const ssize_t n =
          ::send(conn.fd, conn.wbuf.data(), conn.wbuf.size(), MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          want_write(c, true);
          return;
        }
        die(std::string("send failed: ") + std::strerror(errno));
      }
      conn.wbuf.erase(0, static_cast<std::size_t>(n));
    }
    want_write(c, false);
  }

  void on_socket(int c, std::uint32_t events) {
    Conn& conn = conns_[static_cast<std::size_t>(c)];
    if ((events & EPOLLOUT) != 0) flush(c);
    if ((events & (EPOLLIN | EPOLLHUP | EPOLLERR)) == 0) return;
    char buf[65536];
    const ssize_t n = ::recv(conn.fd, buf, sizeof buf, 0);
    if (n == 0) die("server closed a connection");
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN) return;
      die(std::string("recv failed: ") + std::strerror(errno));
    }
    const std::int64_t now = now_ns();
    conn.rbuf.append(buf, static_cast<std::size_t>(n));
    std::size_t begin = 0;
    for (;;) {
      const std::size_t nl = conn.rbuf.find('\n', begin);
      if (nl == std::string::npos) break;
      complete(c, conn.rbuf.substr(begin, nl - begin), now);
      begin = nl + 1;
    }
    conn.rbuf.erase(0, begin);
  }

  void complete(int c, std::string reply, std::int64_t now) {
    std::uint64_t id = 0;
    if (!parse_id(reply, id)) die("reply without an id: " + reply);
    const auto it = pending_.find(id);
    if (it == pending_.end()) die("reply to unknown id " + std::to_string(id));
    Record& r = records_[it->second];
    pending_.erase(it);
    r.done = now;
    r.status = reply.find("\"ok\":true") != std::string::npos ? "ok" : "error";
    r.reply = std::move(reply);
    ++answered_;
    if (!open_loop_) send_next(c, 0);
  }

  int epfd_ = -1;
  int tfd_ = -1;
  std::vector<Conn> conns_;
  std::vector<Record> records_;
  std::unordered_map<std::uint64_t, std::size_t> pending_;
  std::size_t phase_first_ = 0;
  std::size_t next_ = 0;
  std::size_t total_ = 0;
  std::size_t answered_ = 0;
  std::int64_t start_ns_ = 0;
  std::int64_t interval_ns_ = 0;
  bool open_loop_ = false;
};

std::vector<PhaseSpec> parse_phases(const std::string& spec) {
  std::vector<PhaseSpec> out;
  for (const std::string& item : split(spec, ',')) {
    const auto f = split(item, ':');
    PhaseSpec p;
    if (f.size() == 4 && f[1] == "open") {
      p.name = f[0];
      p.kind = "open";
      p.rate = std::stod(f[2]);
      p.seconds = std::stod(f[3]);
      p.count = static_cast<std::size_t>(p.rate * p.seconds);
      if (p.rate <= 0 || p.count == 0) die("bad open phase '" + item + "'");
    } else if (f.size() == 3 && f[1] == "batch") {
      p.name = f[0];
      p.kind = "batch";
      p.count = std::stoul(f[2]);
      if (perfbench::exp_slot(p.name) < 0 || p.count == 0) {
        die("bad batch phase '" + item + "' (name must be an experiment)");
      }
    } else {
      die("bad phase '" + item + "'");
    }
    out.push_back(p);
  }
  return out;
}

/// Byte size of `path` once the daemon's access-log writer has caught up:
/// two equal reads 25 ms apart.
long settled_size(const std::string& path) {
  long last = -1;
  for (int i = 0; i < 400; ++i) {
    struct stat st{};
    const long size = ::stat(path.c_str(), &st) == 0 ? st.st_size : 0;
    if (size == last) return size;
    last = size;
    ::poll(nullptr, 0, 25);
  }
  return last;
}

std::string http_get_metrics(int port) {
  const int fd = connect_to(port);
  const std::string req =
      "GET /metrics HTTP/1.0\r\nHost: 127.0.0.1\r\n\r\n";
  if (::send(fd, req.data(), req.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(req.size())) {
    die("metrics scrape send failed");
  }
  std::string body;
  char buf[65536];
  for (;;) {
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, 10'000) <= 0) die("metrics scrape timed out");
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    body.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  const std::size_t at = body.find("\r\n\r\n");
  return at == std::string::npos ? body : body.substr(at + 4);
}

void write_records(std::FILE* out, const std::vector<Record>& records,
                   std::size_t from) {
  for (std::size_t i = from; i < records.size(); ++i) {
    const Record& r = records[i];
    std::fprintf(out, "R\t%s\t%d\t%d\t%llu\t%llu\t%lld\t%lld\t%lld\t%s\t%s\t%s\n",
                 r.phase.c_str(), r.round, r.conn,
                 static_cast<unsigned long long>(r.seq),
                 static_cast<unsigned long long>(r.id),
                 static_cast<long long>(r.due), static_cast<long long>(r.sent),
                 static_cast<long long>(r.done), r.status.c_str(),
                 r.request.c_str(), r.reply.c_str());
  }
}

int replay(int port, const std::string& from, std::FILE* out) {
  std::ifstream in(from);
  if (!in) die("cannot read " + from);
  std::vector<std::string> lines;
  std::vector<std::uint64_t> ids;
  std::string line;
  std::size_t seen = 0;
  while (std::getline(in, line)) {
    const auto f = split(line, '\t');
    if (f.size() != 12 || f[0] != "R" || f[1] == "warm" || f[9] != "ok") {
      continue;
    }
    if (seen++ % perfbench::kReplayEvery != 0) continue;
    ids.push_back(std::stoull(f[5]));
    lines.push_back(f[10]);
  }
  if (lines.empty()) die("nothing to replay");
  Generator gen(port, 1);
  PhaseSpec spec;
  spec.name = "replay";
  spec.kind = "batch";
  if (!gen.run(spec, 0, lines, ids, 120'000'000'000)) die("replay timed out");
  write_records(out, gen.records(), 0);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = perfbench::parse_flags(argc, argv, 1, {"warm-only"});
  const int port = std::stoi(flag(args, "port"));
  if (port <= 0) die("--port must be a port number");
  const std::string& out_path = flag(args, "out");
  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) die("cannot write " + out_path);
  // Timer slack would add up to 50 us to every timerfd wake-up.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);

  if (args.count("replay") != 0) {
    const int rc = replay(port, args.at("replay"), out);
    std::fclose(out);
    return rc;
  }

  const std::uint64_t seed = std::stoull(flag(args, "seed"));
  const std::string keys = flag_or(args, "keys", "unique");
  if (keys != "unique" && keys != "zipf") die("--keys must be unique or zipf");
  const perfbench::KeyModel model = keys == "zipf"
                                        ? perfbench::KeyModel::make_zipf()
                                        : perfbench::KeyModel{};
  const std::vector<PhaseSpec> phases =
      parse_phases(flag(args, "phases"));
  const std::vector<std::string> marks = split(flag_or(args, "mark", ""), ',');
  const int scrape_port = std::stoi(flag_or(args, "scrape", "0"));
  const int rounds = std::stoi(flag_or(args, "rounds", "1"));
  if (rounds < 1) die("--rounds must be at least 1");

  Generator gen(port, perfbench::kConnections);
  std::uint64_t next_id = 1;
  const auto lines_for = [&](const PhaseSpec& spec, const std::string& stream,
                             int slot, std::vector<std::uint64_t>& ids) {
    const std::vector<Op> ops =
        perfbench::make_ops(model, seed, stream, spec.count, slot);
    std::vector<std::string> lines;
    for (const Op& op : ops) {
      ids.push_back(next_id);
      lines.push_back(perfbench::request_line(op, next_id++));
    }
    return lines;
  };

  const std::size_t warm = std::stoul(flag_or(args, "warm", "0"));
  if (warm > 0) {
    PhaseSpec spec;
    spec.name = "warm";
    spec.kind = "batch";
    spec.count = warm;
    spec.depth = std::stoi(flag_or(args, "warm-depth", "1"));
    // One cold request of every serving cell, then untimed rounds of the
    // timed phases' own traffic, shuffled, so a cache reaches the steady
    // state of the whole phase list.
    std::vector<Op> ops;
    for (int slot = 0;
         slot < static_cast<int>(perfbench::serving_cells().size()); ++slot) {
      ops.push_back(Op{slot, perfbench::kSetupSeed});
    }
    std::vector<Op> mix;
    for (int k = 0; ops.size() + mix.size() < warm; ++k) {
      for (const PhaseSpec& phase : phases) {
        const auto more = perfbench::make_ops(
            model, seed, "warm/" + phase.name + "/" + std::to_string(k),
            phase.count,
            phase.kind == "batch" ? perfbench::exp_slot(phase.name) : -1);
        mix.insert(mix.end(), more.begin(), more.end());
      }
    }
    perfbench::Stream shuffle(seed ^ perfbench::name_hash("warm"));
    for (std::size_t i = mix.size(); i > 1; --i) {
      std::swap(mix[i - 1], mix[shuffle.next() % i]);
    }
    ops.insert(ops.end(), mix.begin(), mix.end());
    ops.resize(warm);
    std::vector<std::uint64_t> ids;
    std::vector<std::string> lines;
    for (const Op& op : ops) {
      ids.push_back(next_id);
      lines.push_back(perfbench::request_line(op, next_id++));
    }
    if (!gen.run(spec, 0, lines, ids, 120'000'000'000)) die("warm-up timed out");
    for (std::size_t i = gen.phase_first(); i < gen.records().size(); ++i) {
      if (gen.records()[i].status != "ok") die("warm-up request failed");
    }
    write_records(out, gen.records(), 0);
  }
  std::printf("READY %lld\n", static_cast<long long>(now_ns()));
  std::fflush(stdout);
  if (args.count("warm-only") != 0) {
    std::fclose(out);
    return 0;
  }

  int index = 0;
  const auto boundary = [&](const std::string& phase, int round,
                            std::int64_t start, std::int64_t end) {
    std::fprintf(out, "P\t%d\t%s\t%d\t%lld\t%lld", index, phase.c_str(), round,
                 static_cast<long long>(start), static_cast<long long>(end));
    for (const std::string& m : marks) {
      std::fprintf(out, "\t%ld", settled_size(m));
    }
    std::fputc('\n', out);
    if (scrape_port > 0) {
      for (const std::string& line : split(http_get_metrics(scrape_port), '\n')) {
        if (line[0] != '#') std::fprintf(out, "S\t%d\t%s\n", index, line.c_str());
      }
    }
    ++index;
  };
  boundary("start", 0, now_ns(), now_ns());
  int rc = 0;
  for (int round = 0; round < rounds && rc == 0; ++round) {
    for (const PhaseSpec& spec : phases) {
      std::vector<std::uint64_t> ids;
      const auto lines = lines_for(
          spec, spec.name + "/" + std::to_string(round),
          spec.kind == "batch" ? perfbench::exp_slot(spec.name) : -1, ids);
      const std::int64_t timeout =
          static_cast<std::int64_t>((spec.seconds + 60.0) * 1e9);
      const std::int64_t start = now_ns();
      const bool finished = gen.run(spec, round, lines, ids, timeout);
      std::int64_t end = 0;
      for (std::size_t i = gen.phase_first(); i < gen.records().size(); ++i) {
        end = std::max(end, gen.records()[i].done);
      }
      write_records(out, gen.records(), gen.phase_first());
      boundary(spec.name, round, start, end);
      if (!finished) {
        std::fprintf(stderr, "perfbench_loadgen: phase %s timed out\n",
                     spec.name.c_str());
        rc = 3;
        break;
      }
      ::poll(nullptr, 0, perfbench::kPhaseGapMs);
    }
  }
  std::fclose(out);
  std::printf("DONE\n");
  return rc;
}
