package main

// sysSendmmsg is sendmmsg's number on linux/amd64, which the syscall
// package's tables predate.
const sysSendmmsg = 307
