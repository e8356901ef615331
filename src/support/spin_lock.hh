/**
 * @file
 * A spin-wait hint and a one-byte spin lock for critical sections a
 * few hundred nanoseconds long, where a kernel sleep would cost more
 * than the wait.
 */

#ifndef LSCHED_SUPPORT_SPIN_LOCK_HH
#define LSCHED_SUPPORT_SPIN_LOCK_HH

#include <atomic>
#include <thread>

namespace lsched
{

/** Spin-wait hint: lets a sibling hyperthread run while we poll. */
inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
}

/**
 * Test-and-test-and-set lock (BasicLockable): spins with cpuRelax(),
 * then yields the CPU, so a waiter never sleeps in the kernel. One
 * byte, so it fits a structure's padding.
 */
class SpinLock
{
  public:
    void
    lock()
    {
        unsigned spins = 0;
        while (locked_.exchange(true, std::memory_order_acquire)) {
            while (locked_.load(std::memory_order_relaxed)) {
                if (++spins < kSpins)
                    cpuRelax();
                else
                    std::this_thread::yield();
            }
        }
    }

    void
    unlock()
    {
        locked_.store(false, std::memory_order_release);
    }

  private:
    /** Polls before a waiter starts yielding. */
    static constexpr unsigned kSpins = 256;
    std::atomic<bool> locked_{false};
};

static_assert(sizeof(SpinLock) == 1, "a spin lock must fit one byte");

} // namespace lsched

#endif // LSCHED_SUPPORT_SPIN_LOCK_HH
