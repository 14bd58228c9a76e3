# string match: *, ?, classes, backslash escapes and their edge cases
proc m {pattern s} { puts "[list $pattern $s] -> [string match $pattern $s]" }

# * and ?
m * {}
m * abc
m a*c abc
m a*c ac
m a*c abd
m ** {}
m *a* banana
m *a*a*a* banana
m *a*a*a*a* banana
m HIT* HIT:3
m HIT* hit:3
m ? a
m ? {}
m ?? a
m a?c abc
m ?*? a
m ?*? ab
m *? {}

# classes: characters, ranges either way round, no negation
m {[a-c]x} bx
m {[a-c]x} dx
m {[abc]} c
m {[z-a]} m
m {[a-c]*[0-9]} b77
m {[!a]} b
m {[!a]} !
m {[^a]} b
m {[^a]} ^
m {[a-]} -
m {[-a]} -
m {[]]} ]
m {[]} x
m {[ab} a
m {[ab} b
m {[ab} c
m {[} {[}
m {a[} {a[}
m {[a\-z]} -
m {[\]]} ]

# backslash escapes the next character
m {\*} *
m {\*} a
m {a\*} a*
m {a\?} a?
m {a\?} ab
m {\[a]} {[a]}
m {\\} \\
m {a\\b} {a\b}
m "a\\" "a\\"
m "*\\\\" "x\\"
m "a\\" a
