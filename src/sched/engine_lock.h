#ifndef SCISPARQL_SCHED_ENGINE_LOCK_H_
#define SCISPARQL_SCHED_ENGINE_LOCK_H_

#include <pthread.h>

namespace scisparql {
namespace sched {

/// The scheduler's reader-writer gate over the engine: a
/// `pthread_rwlock_t` that prefers writers. Once an exclusive request is
/// waiting, new shared requests queue behind it, so the compactor, an
/// escalated write or a replica's apply gets in even while statements hold
/// the shared side back to back. (`std::shared_mutex` is reader-preferring
/// on glibc; under a steady read load its exclusive side starves.)
///
/// Writer preference makes the shared side non-recursive: a thread that
/// takes it twice deadlocks as soon as a writer queues between the two
/// takes. Every shared hold must be released before the next is taken.
///
/// Satisfies Lockable and SharedLockable, so std::unique_lock and
/// std::shared_lock work with it.
class EngineLock {
 public:
  EngineLock() {
    pthread_rwlockattr_t attr;
    pthread_rwlockattr_init(&attr);
    pthread_rwlockattr_setkind_np(&attr,
                                  PTHREAD_RWLOCK_PREFER_WRITER_NONRECURSIVE_NP);
    pthread_rwlock_init(&lock_, &attr);
    pthread_rwlockattr_destroy(&attr);
  }
  ~EngineLock() { pthread_rwlock_destroy(&lock_); }

  EngineLock(const EngineLock&) = delete;
  EngineLock& operator=(const EngineLock&) = delete;

  void lock() { pthread_rwlock_wrlock(&lock_); }
  void unlock() { pthread_rwlock_unlock(&lock_); }
  void lock_shared() { pthread_rwlock_rdlock(&lock_); }
  bool try_lock_shared() { return pthread_rwlock_tryrdlock(&lock_) == 0; }
  void unlock_shared() { pthread_rwlock_unlock(&lock_); }

 private:
  pthread_rwlock_t lock_;
};

}  // namespace sched
}  // namespace scisparql

#endif  // SCISPARQL_SCHED_ENGINE_LOCK_H_
