#include "datamgr/frame.hpp"

#include <bit>
#include <cstring>

#include "common/error.hpp"
#include "common/metrics.hpp"

namespace vdce::dm {

using common::StateError;

namespace detail {

void add_ref(Slab* slab) noexcept {
  slab->refs.fetch_add(1, std::memory_order_relaxed);
}

void release(Slab* slab) noexcept {
  // acq_rel: the last releaser must observe every write the other
  // holders made before dropping their references.
  if (slab->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    slab->pool->recycle(slab);
  }
}

}  // namespace detail

// -- FrameView -----------------------------------------------------------

FrameView::FrameView(detail::Slab* slab, std::size_t offset,
                     std::size_t length)
    : slab_(slab), offset_(offset), length_(length) {
  if (slab_ != nullptr) detail::add_ref(slab_);
}

FrameView::FrameView(const FrameView& other) noexcept
    : slab_(other.slab_), offset_(other.offset_), length_(other.length_) {
  if (slab_ != nullptr) detail::add_ref(slab_);
}

FrameView& FrameView::operator=(const FrameView& other) noexcept {
  if (this == &other) return *this;
  if (other.slab_ != nullptr) detail::add_ref(other.slab_);
  if (slab_ != nullptr) detail::release(slab_);
  slab_ = other.slab_;
  offset_ = other.offset_;
  length_ = other.length_;
  return *this;
}

FrameView::FrameView(FrameView&& other) noexcept
    : slab_(other.slab_), offset_(other.offset_), length_(other.length_) {
  other.slab_ = nullptr;
  other.offset_ = 0;
  other.length_ = 0;
}

FrameView& FrameView::operator=(FrameView&& other) noexcept {
  if (this == &other) return *this;
  if (slab_ != nullptr) detail::release(slab_);
  slab_ = other.slab_;
  offset_ = other.offset_;
  length_ = other.length_;
  other.slab_ = nullptr;
  other.offset_ = 0;
  other.length_ = 0;
  return *this;
}

FrameView::~FrameView() {
  if (slab_ != nullptr) detail::release(slab_);
}

const std::byte* FrameView::data() const {
  return slab_ != nullptr ? slab_->bytes.get() + offset_ : nullptr;
}

FrameView FrameView::subview(std::size_t offset, std::size_t length) const {
  if (offset > length_ || length > length_ - offset) {
    throw StateError("frame subview out of range");
  }
  return FrameView(slab_, offset_ + offset, length);
}

std::vector<std::byte> FrameView::to_vector() const {
  return {begin(), end()};
}

void FrameView::reset() {
  if (slab_ != nullptr) detail::release(slab_);
  slab_ = nullptr;
  offset_ = 0;
  length_ = 0;
}

// -- Frame ---------------------------------------------------------------

Frame::Frame(Frame&& other) noexcept : slab_(other.slab_) {
  other.slab_ = nullptr;
}

Frame& Frame::operator=(Frame&& other) noexcept {
  if (this == &other) return *this;
  if (slab_ != nullptr) detail::release(slab_);
  slab_ = other.slab_;
  other.slab_ = nullptr;
  return *this;
}

Frame::~Frame() {
  if (slab_ != nullptr) detail::release(slab_);
}

std::byte* Frame::data() {
  return slab_ != nullptr ? slab_->bytes.get() : nullptr;
}

const std::byte* Frame::data() const {
  return slab_ != nullptr ? slab_->bytes.get() : nullptr;
}

std::size_t Frame::size() const {
  return slab_ != nullptr ? slab_->size : 0;
}

std::size_t Frame::capacity() const {
  return slab_ != nullptr ? slab_->capacity : 0;
}

void Frame::resize(std::size_t n) {
  if (slab_ == nullptr) throw StateError("resize of an invalid frame");
  if (n > slab_->capacity) throw StateError("frame resize past capacity");
  slab_->size = n;
}

FrameView Frame::view() const {
  if (slab_ == nullptr) return {};
  return FrameView(slab_, 0, slab_->size);
}

void Frame::reset() {
  if (slab_ != nullptr) detail::release(slab_);
  slab_ = nullptr;
}

// -- FramePool -----------------------------------------------------------

namespace {

struct PoolInstruments {
  common::Counter& slabs_allocated;
  common::Counter& reuse_hits;
  common::Counter& reuse_misses;
  common::Gauge& bytes_in_use;
  common::Gauge& high_water;
};

PoolInstruments resolve_instruments() {
  auto& reg = common::MetricsRegistry::global();
  return PoolInstruments{reg.counter("datamgr.pool.slabs_allocated"),
                         reg.counter("datamgr.pool.reuse_hits"),
                         reg.counter("datamgr.pool.reuse_misses"),
                         reg.gauge("datamgr.pool.bytes_in_use"),
                         reg.gauge("datamgr.pool.high_water_bytes")};
}

// Instruments for the global pool.  The global pool is leaked, so its
// releases may run during process teardown -- but only from threads
// that are joined, or that stay blocked, before static destructors
// fire.  DataManager threads join in run().  The communication proxy's
// readers are never joined, but the proxy, its idle connections and its
// gang are leaked, so nothing a reader waits on changes while static
// destructors run.
PoolInstruments& instruments() {
  static PoolInstruments inst = resolve_instruments();
  return inst;
}

}  // namespace

FramePool::FramePool() {
  instruments();  // force registry + instrument construction first
}

FramePool::~FramePool() { trim(); }

std::size_t FramePool::class_capacity(std::size_t size) {
  return std::bit_ceil(std::max(size, kMinSlabBytes));
}

void FramePool::note_in_use_locked(std::size_t capacity) {
  stats_.bytes_in_use += capacity;
  if (stats_.bytes_in_use > stats_.high_water_bytes) {
    stats_.high_water_bytes = stats_.bytes_in_use;
    instruments().high_water.set(
        static_cast<double>(stats_.high_water_bytes));
  }
  instruments().bytes_in_use.set(static_cast<double>(stats_.bytes_in_use));
}

Frame FramePool::allocate(std::size_t size) {
  const std::size_t capacity = class_capacity(size);
  const std::size_t cls =
      static_cast<std::size_t>(std::countr_zero(capacity)) -
      static_cast<std::size_t>(std::countr_zero(kMinSlabBytes));

  detail::Slab* slab = nullptr;
  {
    std::lock_guard lock(mu_);
    if (cls < free_.size() && !free_[cls].empty()) {
      slab = free_[cls].back();
      free_[cls].pop_back();
      --stats_.free_slabs;
      ++stats_.reuse_hits;
    } else {
      ++stats_.reuse_misses;
      ++stats_.slabs_allocated;
    }
    note_in_use_locked(capacity);
  }
  if (slab == nullptr) {
    instruments().slabs_allocated.add();
    instruments().reuse_misses.add();
    slab = new detail::Slab;
    slab->pool = this;
    slab->capacity = capacity;
    slab->bytes = std::make_unique<std::byte[]>(capacity);
  } else {
    instruments().reuse_hits.add();
  }
  slab->size = size;
  slab->refs.store(1, std::memory_order_relaxed);
  return Frame(slab);
}

FrameView FramePool::copy_of(std::span<const std::byte> bytes) {
  Frame frame = allocate(bytes.size());
  if (!bytes.empty()) std::memcpy(frame.data(), bytes.data(), bytes.size());
  return frame.view();
}

void FramePool::recycle(detail::Slab* slab) {
  const std::size_t cls =
      static_cast<std::size_t>(std::countr_zero(slab->capacity)) -
      static_cast<std::size_t>(std::countr_zero(kMinSlabBytes));
  bool park = false;
  {
    std::lock_guard lock(mu_);
    stats_.bytes_in_use -= slab->capacity;
    instruments().bytes_in_use.set(static_cast<double>(stats_.bytes_in_use));
    if (free_.size() <= cls) free_.resize(cls + 1);
    if (free_[cls].size() < kMaxFreePerClass) {
      free_[cls].push_back(slab);
      ++stats_.free_slabs;
      park = true;
    }
  }
  if (!park) delete slab;
}

FramePoolStats FramePool::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

void FramePool::trim() {
  std::lock_guard lock(mu_);
  for (auto& cls : free_) {
    for (detail::Slab* slab : cls) delete slab;
    cls.clear();
  }
  stats_.free_slabs = 0;
}

FramePool& FramePool::global() {
  // Leaked on purpose: see the header.  The registry (and this pool's
  // instruments) are forced into existence first, so their function-
  // local statics outlive every atexit-joined user of the pool.
  static FramePool* pool = new FramePool;
  return *pool;
}

}  // namespace vdce::dm
