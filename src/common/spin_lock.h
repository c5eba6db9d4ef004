// Test-and-test-and-set spin lock for critical sections of a few dozen
// instructions that several threads hit at high rates (the realtime backend's
// lane inboxes, the network's per-thread reader slots). A contended
// std::mutex parks the loser in the kernel, which costs microseconds; a
// waiter here spins on a cached copy of the flag until the holder's release
// store invalidates it. Satisfies Lockable, so std::lock_guard and
// std::unique_lock work with it.
#ifndef SRC_COMMON_SPIN_LOCK_H_
#define SRC_COMMON_SPIN_LOCK_H_

#include <atomic>
#include <thread>

namespace saturn {

// Tells the core the thread is spin-waiting (frees pipeline resources for the
// sibling hyperthread, throttles the spin). A no-op where there is no hint.
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

class SpinLock {
 public:
  void lock() {
    unsigned spins = 0;
    while (locked_.exchange(true, std::memory_order_acquire)) {
      while (locked_.load(std::memory_order_relaxed)) {
        // A holder that was descheduled (more threads than cores) will not
        // release while we spin; give its core back after a short while.
        if (++spins < 128) {
          CpuRelax();
        } else {
          std::this_thread::yield();
        }
      }
    }
  }

  bool try_lock() {
    return !locked_.load(std::memory_order_relaxed) &&
           !locked_.exchange(true, std::memory_order_acquire);
  }

  void unlock() { locked_.store(false, std::memory_order_release); }

 private:
  std::atomic<bool> locked_{false};
};

}  // namespace saturn

#endif  // SRC_COMMON_SPIN_LOCK_H_
