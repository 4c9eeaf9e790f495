/**
 * @file
 * Test entry point: silence inform/warn/panic logging so the many
 * negative-path tests (which intentionally trigger panics) keep the
 * output readable, and switch on the SimCheck invariant auditor so every
 * existing integration/stress test also exercises the audit hooks.
 *
 * The quiet scope sits on the main thread; runMatrix workers and
 * consolidated process threads inherit it, and a test that starts its
 * own threads installs its own scope there.
 */

#include <gtest/gtest.h>

#include "check/simcheck.h"
#include "common/logging.h"

int
main(int argc, char **argv)
{
    ::testing::InitGoogleTest(&argc, argv);
    const safemem::Log quiet = safemem::Log::quiet();
    safemem::LogScope scope(quiet);
    safemem::SimCheck::instance().setEnabled(true);
    return RUN_ALL_TESTS();
}
