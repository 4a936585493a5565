#!/usr/bin/env bash
# Checks that every `go test -run` regex named in the CI workflow and the
# Makefile still selects tests, using `go test -list`: each |-separated
# alternative must match at least one test, benchmark, fuzz target or
# example in the packages its step names, and each of those packages must
# match the regex at least once. A renamed test would otherwise leave its
# step green while it runs nothing. `-run '^$'` (run no tests) is exempt.
#
# Run from the repository root: bash scripts/check-run-regexes.sh
set -euo pipefail

# listed REGEX PKG... prints the names `go test -list` selects; it fails
# when the packages do not build.
listed() {
	local re=$1 out
	shift
	out=$(go test -list "$re" "$@") || return 1
	grep -Ev '^(ok|\?)[[:space:]]' <<<"$out" || true
}

# check REGEX PKG... reports whether REGEX selects anything in PKGs.
check() {
	local names
	if ! names=$(listed "$@"); then
		echo "go test -list '$1' ${*:2} failed" >&2
		return 1
	fi
	[[ -n $names ]]
}

failed=0
while IFS= read -r line; do
	cmd=${line#*test }
	cmd=${cmd//'$$'/'$'}
	eval "args=($cmd)"
	re= pkgs=()
	for ((i = 0; i < ${#args[@]}; i++)); do
		case ${args[i]} in
		-run) re=${args[i + 1]}; i=$((i + 1)) ;;
		-run=*) re=${args[i]#-run=} ;;
		./*) pkgs+=("${args[i]}") ;;
		esac
	done
	if [[ -z $re || $re == '^$' ]]; then
		continue
	fi
	IFS='|' read -ra alts <<<"$re"
	for alt in "${alts[@]}"; do
		if ! check "$alt" "${pkgs[@]}"; then
			echo "no test matches -run alternative '$alt' in ${pkgs[*]}" >&2
			failed=1
		fi
	done
	for pkg in "${pkgs[@]}"; do
		if ! check "$re" "$pkg"; then
			echo "-run '$re' selects nothing in $pkg" >&2
			failed=1
		fi
	done
done < <(grep -hE '(go|\$\(GO\)) test .*-run' .github/workflows/ci.yml Makefile)

if ((failed)); then
	exit 1
fi
echo "every -run regex selects tests"
