// IndexFifo: the injector's per-vertex queue of message-record indices.
//
// A default-constructed std::deque allocates a ~600-byte block at once, so
// one deque per vertex held ~10 MB of heap on a 16k-vertex network whose
// vertices rarely queue more than one message.  An IndexFifo owns no
// memory until its first push and reuses its storage once drained.
#pragma once

#include <cstddef>
#include <vector>

namespace dg::traffic {

class IndexFifo {
 public:
  bool empty() const noexcept { return head_ == items_.size(); }
  std::size_t size() const noexcept { return items_.size() - head_; }
  std::size_t front() const { return items_[head_]; }

  void pop_front() {
    if (++head_ == items_.size()) {  // drained: reuse the storage
      items_.clear();
      head_ = 0;
    }
  }
  void push_back(std::size_t index) {
    if (head_ != 0 && items_.size() == items_.capacity()) {
      // Reclaim the popped prefix before the vector would grow.
      items_.erase(items_.begin(),
                   items_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
    items_.push_back(index);
  }
  void push_front(std::size_t index) {
    if (head_ != 0) {
      items_[--head_] = index;
    } else {
      items_.insert(items_.begin(), index);
    }
  }

 private:
  std::vector<std::size_t> items_;
  std::size_t head_ = 0;  ///< items_[0, head_) are popped
};

}  // namespace dg::traffic
