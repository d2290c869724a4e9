// Compile-fail input: the store's write shape with its lock discipline
// broken. Insert() calls a RDFREL_REQUIRES(mu_) helper and bumps the
// GUARDED_BY generation counter without taking the kStore-ranked
// SharedMutex — exactly the bug that would let a reader observe a
// half-applied write. Under clang -Werror=thread-safety this translation
// unit MUST NOT compile.

#include <cstdint>

#include "util/mutex.h"

namespace {

class MiniStore {
 public:
  void Insert() {
    ++generation_;                 // BAD: mu_ not held exclusively
    InvalidateAfterWriteLocked();  // BAD: REQUIRES(mu_) without the lock
  }

 private:
  void InvalidateAfterWriteLocked() RDFREL_REQUIRES(mu_) {}

  mutable rdfrel::util::SharedMutex mu_{"mini-store",
                                        rdfrel::util::lock_rank::kStore};
  uint64_t generation_ RDFREL_GUARDED_BY(mu_) = 0;
};

}  // namespace

int main() {
  MiniStore s;
  s.Insert();
  return 0;
}
