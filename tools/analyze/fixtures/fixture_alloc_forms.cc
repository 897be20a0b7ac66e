// Seeded violations: every allocating, throwing or type-erasing form that
// tools/lint_hotpath.py used to forbid by regex inside a marked body, one
// entry each, written directly in the body. The standard-library forms
// allocate inside constructors and members of library templates, so the
// closure must follow those calls, constructor aliases included.

#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <vector>

// SOFTTIMER_HOT
std::unique_ptr<int> HotMakeUnique() { return std::make_unique<int>(7); }

// SOFTTIMER_HOT
std::shared_ptr<int> HotMakeShared() { return std::make_shared<int>(7); }

// SOFTTIMER_HOT
void* HotMalloc() { return std::malloc(16); }

// SOFTTIMER_HOT
void* HotCalloc() { return std::calloc(4, 16); }

// SOFTTIMER_HOT
void* HotRealloc(void* p) { return std::realloc(p, 32); }

// SOFTTIMER_HOT
void* HotAlignedAlloc() { return std::aligned_alloc(64, 256); }

// SOFTTIMER_HOT
char* HotStrdup(const char* s) { return strdup(s); }

struct Wide {
  char bytes[64];
};

// A capture too large for std::function's inline buffer spills to the heap.
// SOFTTIMER_HOT
int HotFunctionSpill(Wide wide) {
  std::function<int()> f = [wide] { return wide.bytes[0]; };
  return f();
}

// A capture that fits inline allocates nothing, but calling through an
// empty std::function throws bad_function_call.
// SOFTTIMER_HOT
int HotFunctionCall(const std::function<int()>& f) { return f(); }

// SOFTTIMER_HOT
void HotPushBack(std::vector<int>& v) { v.push_back(1); }

// SOFTTIMER_HOT
void HotEmplaceBack(std::vector<int>& v) { v.emplace_back(1); }

// SOFTTIMER_HOT
void HotResize(std::vector<int>& v) { v.resize(8); }

// SOFTTIMER_HOT
void HotReserve(std::vector<int>& v) { v.reserve(8); }
