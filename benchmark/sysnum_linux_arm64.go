package main

import "syscall"

const sysSendmmsg = syscall.SYS_SENDMMSG
