/**
 * @file
 * Read a golden capture from tests/data/ for a byte-for-byte
 * comparison with a run report.
 */

#pragma once

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

namespace safemem {

/** @return the contents of tests/data/@p name (empty and a test
 *  failure when the file is missing). */
inline std::string
readGolden(const std::string &name)
{
    std::ifstream file(std::string(SAFEMEM_TEST_DATA_DIR) + "/" + name,
                       std::ios::binary);
    EXPECT_TRUE(file.is_open()) << "missing golden " << name;
    std::ostringstream text;
    text << file.rdbuf();
    return text.str();
}

} // namespace safemem
