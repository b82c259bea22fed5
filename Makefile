# Convenience targets; `make ci` is what the CI job runs.

.PHONY: all build test bench ci clean

all: build

build:
	dune build

test:
	dune runtest

bench:
	dune exec bench/main.exe

ci: build
	dune runtest
	dune exec bin/vdpverify.exe -- crash examples/router.click
	dune exec bin/vdpverify.exe -- crash -j 4 --certify examples/router.click
	dune exec bin/vdpverify.exe -- bound -j 4 examples/router.click
	dune exec bin/vdpverify.exe -- verify --certify examples/router.click
	dune exec bin/vdpverify.exe -- crash --certify examples/firewall.click
	dune exec bin/vdpverify.exe -- replay examples/router.click
	dune exec bin/vdpverify.exe -- replay examples/firewall.click
	dune exec bin/vdpverify.exe -- replay --engine batched examples/router.click
	dune exec bin/vdpverify.exe -- replay --engine compiled examples/router.click
	dune exec bin/vdpverify.exe -- replay --engine compiled examples/firewall.click
	dune exec bin/vdpverify.exe -- pump -n 20000 --engine compiled examples/router.click
	dune exec bin/vdpverify.exe -- replay --engine compiled examples/netflow_nat.click
	dune exec bin/vdpverify.exe -- pump -n 20000 --engine compiled examples/netflow_nat.click
	dune exec bench/main.exe -- e1
	VDP_E7_SMOKE=1 dune exec bench/main.exe -- e7
	dune exec bench/main.exe -- e8
	VDP_E9_SMOKE=1 dune exec bench/main.exe -- e9
	VDP_E10_SMOKE=1 dune exec bench/main.exe -- e10
	VDP_E11_SMOKE=1 dune exec bench/main.exe -- e11
	VDP_E12_SMOKE=1 dune exec bench/main.exe -- e12
	dune exec bin/vdpverify.exe -- delta examples/radix_router.click --add "198.51.100.0/24 1"
	dune exec bin/vdpverify.exe -- reach examples/multi_tenant.click
	dune exec bin/vdpverify.exe -- isolate examples/multi_tenant.click
	dune exec bin/vdpverify.exe -- isolate --certify examples/multi_tenant.click
	VDP_E13_SMOKE=1 dune exec bench/main.exe -- e13

clean:
	dune clean
