#include "core/scheduler_queue.hpp"

#include <stdexcept>

#include "core/indexed_queue.hpp"
#include "core/queue_naive.hpp"

namespace woha::core {

std::uint32_t SchedulerQueue::assign_batch(
    SimTime now, std::size_t domain, std::uint32_t k,
    const std::function<bool(std::uint32_t)>& can_use,
    const std::function<void(std::uint32_t)>& on_assign) {
  (void)domain;
  std::uint32_t n = 0;
  while (n < k) {
    const std::uint32_t id = assign(now, can_use);
    if (id == kNone) break;
    ++n;
    on_assign(id);
  }
  return n;
}

const char* to_string(QueueKind kind) {
  switch (kind) {
    case QueueKind::kDsl: return "DSL";
    case QueueKind::kBst: return "BST";
    case QueueKind::kBstPlain: return "BSTplain";
    case QueueKind::kNaive: return "Naive";
  }
  return "?";
}

std::unique_ptr<SchedulerQueue> make_queue(QueueKind kind) {
  switch (kind) {
    case QueueKind::kDsl: return std::make_unique<IndexedQueue<DslOrdering>>();
    case QueueKind::kBst: return std::make_unique<IndexedQueue<BstOrdering>>();
    case QueueKind::kBstPlain:
      return std::make_unique<IndexedQueue<BstPlainOrdering>>();
    case QueueKind::kNaive: return std::make_unique<NaiveQueue>();
  }
  throw std::invalid_argument("make_queue: unknown kind");
}

}  // namespace woha::core
