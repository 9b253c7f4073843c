#!/usr/bin/env bash
# podsd command-line parsing: every numeric flag must reject empty values,
# signs, trailing garbage and out-of-range values with exit status 2 (and
# must not start serving), while a line of valid flags starts the daemon.
# Usage: podsd_flags_test.sh <path-to-podsd>
set -u
PODSD="$1"
failures=0

expect_exit_2() {
  # `timeout` turns a daemon that wrongly starts serving into exit 124.
  timeout 10 "${PODSD}" "$@" >/dev/null 2>&1
  local code=$?
  if [[ ${code} -ne 2 ]]; then
    echo "FAIL: podsd $* exited ${code}, want 2"
    failures=$((failures + 1))
  fi
}

for flag in --port --engine-threads --cache-bytes --reactor-threads \
            --memory-budget --max-pending; do
  expect_exit_2 "${flag}="
  expect_exit_2 "${flag}=abc"
  expect_exit_2 "${flag}=12x"
  expect_exit_2 "${flag}=1e9"
  expect_exit_2 "${flag}=-1"
  expect_exit_2 "${flag}= 5"
done
expect_exit_2 --port=65536
expect_exit_2 --engine-threads=1025
expect_exit_2 --reactor-threads=0
expect_exit_2 --no-such-flag

# Valid values start the daemon; SIGTERM shuts it down cleanly.
out="$(mktemp)"
"${PODSD}" --port=0 --engine-threads=1 --cache-bytes=4096 \
  --reactor-threads=1 --memory-budget=0 --max-pending=16 >"${out}" 2>&1 &
pid=$!
for _ in $(seq 100); do
  grep -q 'podsd listening' "${out}" && break
  sleep 0.1
done
if ! grep -q 'podsd listening' "${out}"; then
  echo "FAIL: podsd did not start with valid flags:"
  cat "${out}"
  failures=$((failures + 1))
fi
kill -TERM "${pid}" 2>/dev/null
wait "${pid}"
code=$?
if [[ ${code} -ne 0 ]]; then
  echo "FAIL: podsd exited ${code} after SIGTERM, want 0"
  failures=$((failures + 1))
fi
rm -f "${out}"

if [[ ${failures} -ne 0 ]]; then
  echo "${failures} podsd flag check(s) failed"
  exit 1
fi
echo "podsd flag parsing OK"
