//go:build !linux

package dnsbl

import "syscall"

// supportsReusePort: without SO_REUSEPORT semantics we can rely on
// (macOS has the constant but different balancing; Windows has none),
// ListenShards binds a single socket and every shard shares it. The
// shard loops and batch arenas still apply — only the kernel-level
// listener fan-out is lost.
const supportsReusePort = false

func reusePortControl(network, address string, c syscall.RawConn) error { return nil }
