#include "probes.hpp"

#include <sys/resource.h>
#include <sys/socket.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string_view>

namespace {

thread_local std::uint64_t t_allocations = 0;

std::atomic<std::uint64_t> g_socket_calls{0};

}  // namespace

// Socket call counters, bound by the linker (--wrap=send,--wrap=recv in
// CMakeLists.txt): every send()/recv() the library makes lands here first.
extern "C" {
ssize_t __real_send(int fd, const void* data, size_t size, int flags);
ssize_t __real_recv(int fd, void* data, size_t size, int flags);

ssize_t __wrap_send(int fd, const void* data, size_t size, int flags) {
  g_socket_calls.fetch_add(1, std::memory_order_relaxed);
  return __real_send(fd, data, size, flags);
}

ssize_t __wrap_recv(int fd, void* data, size_t size, int flags) {
  g_socket_calls.fetch_add(1, std::memory_order_relaxed);
  return __real_recv(fd, data, size, flags);
}
}

// Counting replacements for the global allocator: count, then defer to
// malloc/free (the replaceable-function contract).
void* operator new(std::size_t size) {
  ++t_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace lockbench {

std::uint64_t thread_allocations() { return t_allocations; }

Usage process_usage() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  Usage out;
  out.cpu_s = seconds(usage.ru_utime) + seconds(usage.ru_stime);
  out.context_switches =
      static_cast<std::uint64_t>(usage.ru_nvcsw + usage.ru_nivcsw);
  out.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  return out;
}

std::uint64_t io_syscalls() {
  std::uint64_t total = g_socket_calls.load(std::memory_order_relaxed);
  std::FILE* file = std::fopen("/proc/self/io", "r");
  if (file == nullptr) return total;
  char key[64];
  unsigned long long value = 0;
  while (std::fscanf(file, "%63s %llu", key, &value) == 2) {
    const std::string_view name(key);
    if (name == "syscr:" || name == "syscw:") total += value;
  }
  std::fclose(file);
  return total;
}

}  // namespace lockbench
