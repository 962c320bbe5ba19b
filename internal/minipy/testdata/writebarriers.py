# One in-place write through every write-barrier site, each on its own line
# so a watch on the container sees it. Values are fresh objects allocated
# after the binding write on the line before, so a write that skipped its
# barrier links an object newer than every stamp in the container.
class Box:
    def __init__(self):
        self.v = [0]

xs = [[1]]
ys = [3, 1, 2]
d = {"a": [1]}
b = Box()
k = 1
xs.append([2])
k = 2
xs.insert(0, [3])
k = 3
xs.remove([2])
k = 4
xs.reverse()
k = 5
xs.extend([[4], [5]])
k = 6
xs += [[6]]
k = 7
xs[0] = [7]
k = 8
del xs[0]
k = 9
n = xs.pop()
k = 10
n = xs.pop(0)
k = 11
ys.sort()
k = 12
xs.clear()
k = 13
d["b"] = [8]
k = 14
d["a"] = [9]
k = 15
del d["a"]
k = 16
m = d.pop("b")
k = 17
d["c"] = [10]
k = 18
d.clear()
k = 19
b.v = [11]
k = 20
b.w = [12]
print(xs, ys, d, b.v, b.w, n, m)
