// Positive control for shared_lock_requires_violation.cc: the store's
// write shape with the discipline intact — the kStore-ranked SharedMutex
// is held exclusively across the generation bump and the
// RDFREL_REQUIRES(mu_) invalidation, so readers never see a half-applied
// write. MUST compile under clang -Werror=thread-safety.

#include <cstdint>

#include "util/mutex.h"

namespace {

class MiniStore {
 public:
  void Insert() {
    rdfrel::util::WriterLock lock(&mu_);
    ++generation_;
    InvalidateAfterWriteLocked();
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
