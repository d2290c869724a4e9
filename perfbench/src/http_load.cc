#include "http_load.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <deque>

#include "digest.h"
#include "serve/net.h"

namespace perfbench {

namespace {

std::string Lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(c));
  return out;
}

std::string_view Trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

}  // namespace

bool ResponseReader::ParseHead(std::string_view head) {
  // Status line: HTTP/1.x <code> <reason>
  size_t eol = head.find("\r\n");
  std::string_view line = head.substr(0, eol);
  if (line.rfind("HTTP/1.", 0) != 0 || line.size() < 12) return false;
  status_ = std::atoi(std::string(line.substr(9, 3)).c_str());
  if (status_ < 100) return false;
  bool chunked = false;
  bool has_length = false;
  uint64_t length = 0;
  while (eol != std::string_view::npos) {
    head.remove_prefix(eol + 2);
    eol = head.find("\r\n");
    line = head.substr(0, eol);
    if (line.empty()) continue;
    const size_t colon = line.find(':');
    if (colon == std::string_view::npos) return false;
    const std::string name = Lower(Trim(line.substr(0, colon)));
    const std::string value = Lower(Trim(line.substr(colon + 1)));
    if (name == "content-length") {
      char* end = nullptr;
      length = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
      has_length = true;
    } else if (name == "transfer-encoding") {
      chunked = value.find("chunked") != std::string::npos;
    } else if (name == "connection") {
      keep_alive_ = value != "close";
    }
  }
  if (chunked) {
    state_ = State::kChunkSize;
  } else if (has_length) {
    remaining_ = length;
    state_ = length == 0 ? State::kDone : State::kBody;
  } else {
    keep_alive_ = false;
    state_ = State::kBodyToEof;
  }
  return true;
}

void ResponseReader::Body(std::string_view data) {
  body_hash_ = Fnv1a(data, body_hash_);
  body_bytes_ += data.size();
}

bool ResponseReader::Feed(std::string_view data) {
  while (!data.empty()) {
    switch (state_) {
      case State::kHead: {
        buf_.append(data);
        data = {};
        const size_t end = buf_.find("\r\n\r\n");
        if (end == std::string::npos) {
          if (buf_.size() > 64 * 1024) return false;
          break;
        }
        std::string rest = buf_.substr(end + 4);
        if (!ParseHead(std::string_view(buf_).substr(0, end + 2))) {
          return false;
        }
        buf_.clear();
        if (!rest.empty()) return Feed(rest);
        break;
      }
      case State::kBody: {
        const size_t n = static_cast<size_t>(
            std::min<uint64_t>(remaining_, data.size()));
        Body(data.substr(0, n));
        data.remove_prefix(n);
        remaining_ -= n;
        if (remaining_ == 0) state_ = State::kDone;
        break;
      }
      case State::kBodyToEof:
        Body(data);
        data = {};
        break;
      case State::kChunkSize:
      case State::kChunkEnd:
      case State::kTrailer: {
        const size_t nl = data.find('\n');
        buf_.append(data.substr(0, nl == std::string_view::npos ? data.size()
                                                                : nl + 1));
        if (nl == std::string_view::npos) {
          data = {};
          if (buf_.size() > 4096) return false;
          break;
        }
        data.remove_prefix(nl + 1);
        std::string line = buf_;
        buf_.clear();
        while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
          line.pop_back();
        }
        if (state_ == State::kChunkEnd) {
          if (!line.empty()) return false;
          state_ = State::kChunkSize;
        } else if (state_ == State::kTrailer) {
          if (line.empty()) state_ = State::kDone;
        } else {
          char* end = nullptr;
          remaining_ = std::strtoull(line.c_str(), &end, 16);
          if (end == line.c_str()) return false;
          state_ = remaining_ == 0 ? State::kTrailer : State::kChunkData;
        }
        break;
      }
      case State::kChunkData: {
        const size_t n = static_cast<size_t>(
            std::min<uint64_t>(remaining_, data.size()));
        Body(data.substr(0, n));
        data.remove_prefix(n);
        remaining_ -= n;
        if (remaining_ == 0) state_ = State::kChunkEnd;
        break;
      }
      case State::kDone:
        return false;  // one request in flight: nothing may follow
    }
  }
  return true;
}

void ResponseReader::OnEof() {
  if (state_ == State::kBodyToEof) state_ = State::kDone;
}

namespace {

struct Conn {
  rdfrel::serve::UniqueFd fd;
  std::deque<size_t> queue;  ///< samples waiting for this connection
  bool busy = false;         ///< a request is in flight
  size_t current = 0;        ///< sample in flight
  std::string out;
  size_t out_off = 0;
  ResponseReader reader;
};

bool Connect(uint16_t port, Conn* c) {
  auto fd = rdfrel::serve::ConnectTcp("127.0.0.1", port);
  if (!fd.ok()) return false;
  const int one = 1;
  setsockopt(fd->get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  const int flags = fcntl(fd->get(), F_GETFL, 0);
  if (flags < 0 || fcntl(fd->get(), F_SETFL, flags | O_NONBLOCK) < 0) {
    return false;
  }
  c->fd = std::move(*fd);
  return true;
}

/// Writes as much of the pending request as the socket takes.
bool Flush(Conn* c) {
  while (c->out_off < c->out.size()) {
    const ssize_t n = ::send(c->fd.get(), c->out.data() + c->out_off,
                             c->out.size() - c->out_off, MSG_NOSIGNAL);
    if (n < 0) return errno == EAGAIN || errno == EWOULDBLOCK;
    c->out_off += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

std::vector<HttpSample> RunOpenLoop(uint16_t port,
                                    const std::vector<std::string>& requests,
                                    double rate, int connections) {
  std::vector<Conn> conns(static_cast<size_t>(connections));
  for (Conn& c : conns) Connect(port, &c);

  std::vector<HttpSample> samples(requests.size());
  const auto start = Clock::now() + std::chrono::milliseconds(2);
  auto due = [&](size_t k) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(
                           static_cast<double>(k) / rate));
  };
  // Past this, whatever is still outstanding is counted as failed.
  const auto give_up = due(requests.size()) + std::chrono::seconds(60);
  size_t next = 0;

  auto finish = [&](Conn& c, Clock::time_point now, bool complete) {
    HttpSample& s = samples[c.current];
    s.done = now;
    if (complete) {
      s.status = c.reader.status();
      s.body_hash = c.reader.body_hash();
      s.body_bytes = c.reader.body_bytes();
    }
    const bool keep = complete && c.reader.keep_alive();
    c.busy = false;
    c.reader.Reset();
    if (!keep) c.fd.reset();
  };

  while (true) {
    auto now = Clock::now();
    while (next < requests.size() && due(next) <= now) {
      samples[next].request = next;
      samples[next].scheduled = due(next);
      samples[next].released = now;
      conns[next % conns.size()].queue.push_back(next);
      ++next;
    }
    const bool more_coming = next < requests.size();
    bool any_open = false;
    for (Conn& c : conns) {
      if (!c.busy && !c.queue.empty()) {
        if (!c.fd.valid()) Connect(port, &c);
        c.current = c.queue.front();
        c.queue.pop_front();
        samples[c.current].sent = now;
        if (!c.fd.valid()) {
          samples[c.current].done = now;  // status 0: failed
          continue;
        }
        c.out = requests[c.current];
        c.out_off = 0;
        c.busy = true;
        if (!Flush(&c)) finish(c, now, false);
      }
      // Nothing left for this connection: close it, which is what lets a
      // server worker move on to a connection that waited for one.
      if (!c.busy && c.queue.empty() && !more_coming) c.fd.reset();
      any_open = any_open || c.busy || !c.queue.empty();
    }
    if (!any_open && !more_coming) break;
    if (now > give_up) {
      for (Conn& c : conns) {
        if (c.busy) finish(c, now, false);
        for (size_t k : c.queue) samples[k].done = now;
        c.queue.clear();
        c.fd.reset();
      }
      break;
    }

    std::vector<pollfd> fds;
    std::vector<Conn*> owners;
    for (Conn& c : conns) {
      if (!c.busy) continue;
      short events = POLLIN;
      if (c.out_off < c.out.size()) events |= POLLOUT;
      fds.push_back(pollfd{c.fd.get(), events, 0});
      owners.push_back(&c);
    }
    auto wake = now + std::chrono::milliseconds(50);
    if (more_coming) wake = std::min(wake, due(next));
    const auto wait_ns = std::max<int64_t>(
        0, std::chrono::duration_cast<std::chrono::nanoseconds>(wake - now)
               .count());
    timespec ts{static_cast<time_t>(wait_ns / 1000000000),
                static_cast<long>(wait_ns % 1000000000)};
    const int ready = ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (ready <= 0) continue;
    now = Clock::now();
    for (size_t i = 0; i < fds.size(); ++i) {
      Conn& c = *owners[i];
      if (fds[i].revents == 0 || !c.busy) continue;
      if ((fds[i].revents & POLLOUT) != 0 && !Flush(&c)) {
        finish(c, now, false);
        continue;
      }
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      char buf[64 * 1024];
      while (c.busy) {
        const ssize_t n = ::recv(c.fd.get(), buf, sizeof(buf), 0);
        if (n < 0) {
          if (errno != EAGAIN && errno != EWOULDBLOCK) finish(c, now, false);
          break;
        }
        if (n == 0) {
          c.reader.OnEof();
          finish(c, now, c.reader.done());
          break;
        }
        if (!c.reader.Feed(std::string_view(buf, static_cast<size_t>(n)))) {
          finish(c, now, false);
          break;
        }
        if (c.reader.done()) finish(c, Clock::now(), true);
      }
    }
  }
  return samples;
}

}  // namespace perfbench
